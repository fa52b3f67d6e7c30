package expr

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/workloads"
)

func TestPaperConfig(t *testing.T) {
	pl := PaperPlatform()
	if pl.CPUs != 20 || pl.GPUs != 4 {
		t.Errorf("paper platform = %v", pl)
	}
	ns := PaperNs()
	if ns[0] != 4 || ns[len(ns)-1] != 64 {
		t.Errorf("paper Ns = %v", ns)
	}
	if len(SmallNs()) == 0 {
		t.Error("SmallNs empty")
	}
}

func TestRunIndependentUnknown(t *testing.T) {
	if _, err := RunIndependent("nope", nil, PaperPlatform()); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunDAGUnknown(t *testing.T) {
	g := workloads.Cholesky(2)
	if _, err := RunDAG("nope", g, PaperPlatform()); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestFig6Small(t *testing.T) {
	rows, err := Fig6Pool(context.Background(), engine.Default(), []int{4, 8}, PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 kernels x 2 Ns
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.AreaBound <= 0 {
			t.Errorf("%s N=%d: area bound %v", r.Kernel, r.N, r.AreaBound)
		}
		for alg, ratio := range r.Ratio {
			if ratio < 1-1e-9 {
				t.Errorf("%s N=%d %s: ratio %v below 1 (beat the lower bound)", r.Kernel, r.N, alg, ratio)
			}
			if ratio > 10 {
				t.Errorf("%s N=%d %s: ratio %v implausibly large", r.Kernel, r.N, alg, ratio)
			}
		}
	}
	table := Fig6Table(rows)
	if !strings.Contains(table.Markdown(), "HeteroPrio") {
		t.Error("Fig6 table missing algorithm column")
	}
}

func TestFig7SmallAndViews(t *testing.T) {
	rows, err := Fig7Pool(context.Background(), engine.Default(), []int{4, 8}, PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		for alg, ratio := range r.Ratio {
			if ratio < 1-1e-9 {
				t.Errorf("%s N=%d %s: ratio %v below 1", r.Kernel, r.N, alg, ratio)
			}
		}
		for _, alg := range DAGAlgorithms() {
			ea := r.EquivAccel[alg]
			// GPU-side equivalent accel should be at least the CPU-side one
			// for a sensible affinity-aware schedule; only check it is
			// defined for the GPU side (the CPU may execute nothing at
			// small N).
			if v, ok := ea[platform.GPU]; !ok || math.IsNaN(v) && r.N > 4 {
				t.Errorf("%s N=%d %s: GPU equivalent accel undefined", r.Kernel, r.N, alg)
			}
			ni := r.NormIdle[alg]
			if v := ni[platform.GPU]; !math.IsNaN(v) && v < -1e-9 {
				t.Errorf("%s N=%d %s: negative idle %v", r.Kernel, r.N, alg, v)
			}
		}
	}
	for _, tb := range []interface{ Markdown() string }{Fig7Table(rows), Fig8Table(rows), Fig9Table(rows)} {
		if len(tb.Markdown()) == 0 {
			t.Error("empty table rendering")
		}
	}
}

func TestTable1(t *testing.T) {
	tb := Table1Table()
	md := tb.Markdown()
	for _, want := range []string{"DPOTRF", "DTRSM", "DSYRK", "DGEMM", "1.72", "8.72", "26.96", "28.8"} {
		if !strings.Contains(md, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, md)
		}
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	phi := workloads.Phi
	// (1,1): achieved ratio must equal phi exactly (tight example).
	if math.Abs(rows[0].Achieved-phi) > 1e-9 {
		t.Errorf("(1,1) achieved %v, want %v", rows[0].Achieved, phi)
	}
	// (m,1): achieved approaches 1+phi from below.
	if rows[1].Achieved < 2.4 || rows[1].Achieved > rows[1].Bound {
		t.Errorf("(m,1) achieved %v outside (2.4, %v)", rows[1].Achieved, rows[1].Bound)
	}
	// (m,n): achieved between 2.5 and the worst-case example value.
	if rows[2].Achieved < 2.5 || rows[2].Achieved > rows[2].WorstCaseEx+1e-9 {
		t.Errorf("(m,n) achieved %v outside (2.5, %v)", rows[2].Achieved, rows[2].WorstCaseEx)
	}
	if md := Table2Table(rows).Markdown(); !strings.Contains(md, "(m,n)") {
		t.Errorf("Table 2 rendering:\n%s", md)
	}
}

func TestAblationSmall(t *testing.T) {
	rows, err := AblationPool(context.Background(), engine.Default(), []int{4, 8}, PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Full < 1-1e-9 || r.NoSpoliation < 1-1e-9 || r.NoPriorities < 1-1e-9 {
			t.Errorf("%s N=%d: ratio below 1: %+v", r.Kernel, r.N, r)
		}
		// Spoliation never hurts on these workloads (it only replaces runs
		// that finish strictly earlier elsewhere); allow small slack for
		// divergent downstream decisions.
		if r.Full > r.NoSpoliation*1.5 {
			t.Errorf("%s N=%d: full %v much worse than no-spoliation %v", r.Kernel, r.N, r.Full, r.NoSpoliation)
		}
	}
	if md := AblationTable(rows).Markdown(); !strings.Contains(md, "no spoliation") {
		t.Error("ablation table rendering")
	}
}

// TestAlgorithmCatalog pins the registry contract of the zoo (DESIGN.md
// §15): the catalog lists are disjoint unions, and every listed name —
// paper set and zoo alike — runs and validates on a small workload. A
// name in the catalog that RunIndependent/RunDAG cannot dispatch, or a
// scheduler that emits an invalid schedule, fails here before it can
// break the tournament sweep or hpsched -alg all.
func TestAlgorithmCatalog(t *testing.T) {
	if got, want := len(AllIndepAlgorithms()), len(IndepAlgorithms())+len(ZooIndepAlgorithms()); got != want {
		t.Fatalf("AllIndepAlgorithms has %d entries, want %d", got, want)
	}
	if got, want := len(AllDAGAlgorithms()), len(DAGAlgorithms())+len(ZooDAGAlgorithms()); got != want {
		t.Fatalf("AllDAGAlgorithms has %d entries, want %d", got, want)
	}
	pl := platform.NewPlatform(4, 2)
	// Names are deduplicated per mode: CLB2C and Affinity keep their bare
	// name in both catalogs because their DAG entry has no ranking
	// variants, and hpsched dispatches by mode.
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(42))
	in := workloads.UniformInstance(24, 1, 20, 0.5, 10, rng)
	for _, alg := range AllIndepAlgorithms() {
		if seen[alg] {
			t.Errorf("duplicate independent algorithm %q", alg)
		}
		seen[alg] = true
		s, err := RunIndependent(alg, in, pl)
		if err != nil {
			t.Errorf("%s: %v", alg, err)
			continue
		}
		if err := s.Validate(in, nil); err != nil {
			t.Errorf("%s: invalid schedule: %v", alg, err)
		}
	}
	seen = map[string]bool{}
	for _, alg := range AllDAGAlgorithms() {
		if seen[alg] {
			t.Errorf("duplicate DAG algorithm %q", alg)
		}
		seen[alg] = true
		g, err := workloads.Build(workloads.FactCholesky, 4)
		if err != nil {
			t.Fatal(err)
		}
		s, err := RunDAG(alg, g, pl)
		if err != nil {
			t.Errorf("%s: %v", alg, err)
			continue
		}
		if err := s.Validate(g.Tasks(), g); err != nil {
			t.Errorf("%s: invalid schedule: %v", alg, err)
		}
	}
}
