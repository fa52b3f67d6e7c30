package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/workloads"
)

// wideGolden is one pinned schedule: the SHA-256 of Schedule.CSV() and the
// spoliation count.
type wideGolden struct {
	csvSHA256   string
	spoliations int
}

// wideDAGGolden pins HeteroPrio-min (min bottom-level priorities, the
// queue's priority tie-break on) on the N=16 factorizations from 20+4 to
// 480+64, keyed "<factorization>@<cpus>+<gpus>". The values were recorded
// with the sort-then-first-fit victim pick and the linear-scan kernel;
// the one-pass pick, the per-class early stop of the spoliation sweep and
// the kernel's completion heap must reproduce them byte for byte.
var wideDAGGolden = map[string]wideGolden{
	"cholesky@20+4":   {"412b901ba9ebdd25bed108ea762849aaa84292226d4b9c8af914b385dc62ceea", 149},
	"cholesky@120+24": {"fca3ce21373a41f5d19e88701365dccf9696bd80aa03e233b590eb3f930e5c20", 408},
	"cholesky@480+64": {"073a1c8d674eac637479c254d7f67aa57291d49f1e47d700dcd65be29180339e", 140},
	"qr@20+4":         {"9454fcc021706fa453c17b4a91ec9664400c70dcefd286e12bef47adf74f03ba", 122},
	"qr@120+24":       {"8af5a9346c67768abe2cf3839b538aa34cf604105b285fdf38f60032e7145287", 517},
	"qr@480+64":       {"c007a2984b2f29ad3a52bf16ffb65d31f0b9aecf03a9d21d2b8ea19abc357277", 0},
	"lu@20+4":         {"69225c01b944425cad558674fa8adbb386fb74a4b6f4f6e4f590fd27dd3c3972", 115},
	"lu@120+24":       {"b9b42cd3a13c970b1d03a3e568ed0ad48f2df35767ad782ade837044d165cd0c", 869},
	"lu@480+64":       {"dcc3a0c328bc2df18706309d1c846f3c7d829d6a7a37fa75f096176949935f66", 588},
}

// wideOnlineGolden pins one ScheduleOnline run on 480+64 (see
// wideOnlineTasks), recorded like wideDAGGolden.
var wideOnlineGolden = wideGolden{"2b567f74e80b14f6b45f0c221562b2befacb5f21748df32f76e5fb08a6ec2f66", 324}

var widePlatforms = []platform.Platform{
	platform.NewPlatform(20, 4), platform.NewPlatform(120, 24), platform.NewPlatform(480, 64),
}

func csvDigest(csv string) string {
	sum := sha256.Sum256([]byte(csv))
	return hex.EncodeToString(sum[:])
}

// wideOnlineTasks releases the QR N=16 task set as independent tasks in
// batches of 64, one batch every 2 time units, so the 544 workers drain
// each batch and spoliate between arrivals.
func wideOnlineTasks(t *testing.T) []ReleasedTask {
	t.Helper()
	in, err := workloads.IndependentTasks(workloads.FactQR, 16)
	if err != nil {
		t.Fatal(err)
	}
	rel := make([]ReleasedTask, len(in))
	for i, tk := range in {
		rel[i] = ReleasedTask{Task: tk, Release: float64(2 * (i / 64))}
	}
	return rel
}

// TestWideSchedulesGolden runs HeteroPrio where the spoliation sweep and
// the kernel's completion order see hundreds of workers; no other test
// schedules a DAG wider than 20+4.
func TestWideSchedulesGolden(t *testing.T) {
	for _, f := range workloads.Factorizations() {
		for _, pl := range widePlatforms {
			name := fmt.Sprintf("%s@%d+%d", f, pl.CPUs, pl.GPUs)
			g, err := workloads.Build(f, 16)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
				t.Fatal(err)
			}
			res, err := ScheduleDAG(g, pl, Options{UsePriorities: true})
			if err != nil {
				t.Fatal(err)
			}
			got := wideGolden{csvDigest(res.Schedule.CSV()), res.Spoliations}
			if want := wideDAGGolden[name]; got != want {
				t.Errorf("%s: got %+v, want %+v", name, got, want)
			}
		}
	}
	res, err := ScheduleOnline(wideOnlineTasks(t), platform.NewPlatform(480, 64), Options{UsePriorities: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := (wideGolden{csvDigest(res.Schedule.CSV()), res.Spoliations}); got != wideOnlineGolden {
		t.Errorf("online@480+64: got %+v, want %+v", got, wideOnlineGolden)
	}
}
