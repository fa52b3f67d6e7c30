package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestLiveMatchesScheduleDAG holds HeteroPrio's two entry points for a
// graph to each other: Live, driven here as a discrete-event executor,
// must make ScheduleDAG's schedule entry for entry, aborted runs
// included. The corpus is the three factorizations at N = 4, 8 and 12,
// 20 random layered graphs and one edge-free graph (the tiled LU's tasks
// with their many equal acceleration factors), on six platforms from one
// class only to 120+24, with and without the priority tie-break and with
// spoliation off.
func TestLiveMatchesScheduleDAG(t *testing.T) {
	type named struct {
		name string
		g    *dag.Graph
	}
	var graphs []named
	for _, f := range workloads.Factorizations() {
		for _, n := range []int{4, 8, 12} {
			g, err := workloads.Build(f, n)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, named{fmt.Sprintf("%s-%d", f, n), g})
		}
	}
	for seed := range int64(20) {
		g := dag.RandomLayered(dag.DefaultRandomLayeredConfig(), rand.New(rand.NewSource(seed)))
		graphs = append(graphs, named{fmt.Sprintf("layered-%d", seed), g})
	}
	in, err := workloads.IndependentTasks(workloads.FactLU, 8)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, named{"independent-lu-8", dag.FromInstance(in)})

	platforms := []platform.Platform{
		platform.NewPlatform(20, 4), platform.NewPlatform(8, 2), platform.NewPlatform(1, 1),
		platform.NewPlatform(3, 0), platform.NewPlatform(0, 2), platform.NewPlatform(120, 24),
	}
	options := []Options{{UsePriorities: true}, {}, {UsePriorities: true, DisableSpoliation: true}}
	schedules, aborted := 0, 0
	for _, gr := range graphs {
		for _, pl := range platforms {
			if _, err := gr.g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
				t.Fatal(err)
			}
			for _, opt := range options {
				want, err := ScheduleDAG(gr.g, pl, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := replayLive(t, gr.g, pl, opt)
				if d := diffEntries(got.Entries, want.Schedule.Entries); d != "" {
					t.Errorf("%s on %v, %+v: %s", gr.name, pl, opt, d)
				}
				schedules++
				aborted += want.Spoliations
			}
		}
	}
	if aborted == 0 {
		t.Error("no schedule of the corpus spoliates: the abort path went untested")
	}
	t.Logf("%d schedules agree, %d aborted runs among them", schedules, aborted)
}

// replayLive drives Live as a discrete-event executor: every run ends at
// its EstEnd, and the runs ending at one instant are finished, in worker
// order, before that instant's round.
func replayLive(t *testing.T, g *dag.Graph, pl platform.Platform, opt Options) *sim.Schedule {
	t.Helper()
	lv, err := NewLive(g, pl, opt)
	if err != nil {
		t.Fatal(err)
	}
	k := lv.Kernel()
	lv.Round(0)
	for !lv.Done() {
		next := math.Inf(1)
		for w := range pl.Workers() {
			if k.Busy(w) {
				next = min(next, k.RunOf(w).EstEnd)
			}
		}
		if math.IsInf(next, 1) {
			t.Fatalf("no run in progress with tasks remaining")
		}
		for w := range pl.Workers() {
			if k.Busy(w) && k.RunOf(w).EstEnd == next {
				lv.Finish(next, w)
			}
		}
		lv.Round(next)
	}
	return k.Schedule()
}

// diffEntries describes the first difference between two schedules'
// entries, or returns "".
func diffEntries(got, want []sim.Entry) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("entry %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	return ""
}
