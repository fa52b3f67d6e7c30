package stf

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workloads"
)

func task(name string) platform.Task {
	return platform.Task{Name: name, CPUTime: 1, GPUTime: 1}
}

func TestAccessModeString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" || ReadWrite.String() != "RW" {
		t.Error("mode strings wrong")
	}
	if AccessMode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestRAWDependency(t *testing.T) {
	f := New()
	x := f.Data("x")
	w, err := f.Submit(task("writer"), W(x))
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Submit(task("reader"), R(x))
	if err != nil {
		t.Fatal(err)
	}
	g := f.Graph()
	if len(g.Preds(r)) != 1 || g.Preds(r)[0] != w {
		t.Errorf("reader preds = %v, want [%d]", g.Preds(r), w)
	}
}

func TestWARDependency(t *testing.T) {
	f := New()
	x := f.Data("x")
	f.MustSubmit(task("w0"), W(x))
	r1 := f.MustSubmit(task("r1"), R(x))
	r2 := f.MustSubmit(task("r2"), R(x))
	w1 := f.MustSubmit(task("w1"), W(x))
	g := f.Graph()
	preds := g.Preds(w1)
	want := map[int]bool{0: true, r1: true, r2: true}
	if len(preds) != 3 {
		t.Fatalf("w1 preds = %v, want writer and both readers", preds)
	}
	for _, p := range preds {
		if !want[p] {
			t.Errorf("unexpected pred %d", p)
		}
	}
}

func TestWAWAndIndependentReads(t *testing.T) {
	f := New()
	x := f.Data("x")
	w0 := f.MustSubmit(task("w0"), W(x))
	w1 := f.MustSubmit(task("w1"), W(x))
	g := f.Graph()
	if len(g.Preds(w1)) != 1 || g.Preds(w1)[0] != w0 {
		t.Errorf("WAW missing: preds = %v", g.Preds(w1))
	}
	// Two readers of the same version do not depend on each other.
	r1 := f.MustSubmit(task("r1"), R(x))
	r2 := f.MustSubmit(task("r2"), R(x))
	for _, p := range g.Preds(r2) {
		if p == r1 {
			t.Error("readers of the same version must be independent")
		}
	}
}

func TestMergedAccess(t *testing.T) {
	f := New()
	x := f.Data("x")
	f.MustSubmit(task("w0"), W(x))
	// Declaring both R and W on the same handle merges to RW (one
	// dependency on the writer, then becomes the new writer).
	rw := f.MustSubmit(task("rw"), R(x), W(x))
	r := f.MustSubmit(task("r"), R(x))
	g := f.Graph()
	if len(g.Preds(rw)) != 1 {
		t.Errorf("rw preds = %v", g.Preds(rw))
	}
	if len(g.Preds(r)) != 1 || g.Preds(r)[0] != rw {
		t.Errorf("r preds = %v, want [rw]", g.Preds(r))
	}
}

func TestInvalidHandle(t *testing.T) {
	f := New()
	if _, err := f.Submit(task("bad"), R(Handle(7))); err == nil {
		t.Error("unregistered handle accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSubmit should panic on invalid handle")
		}
	}()
	f.MustSubmit(task("bad"), R(Handle(7)))
}

func TestDataNames(t *testing.T) {
	f := New()
	h := f.Data("A(0,0)")
	if f.DataName(h) != "A(0,0)" || f.NumData() != 1 {
		t.Error("data registration wrong")
	}
}

// TestCholeskySTFMatchesHandBuilt is the cross-validation: the STF-inferred
// Cholesky graph must have the same size and produce the same HeteroPrio
// makespan as the hand-built generator (the dependency structures may
// differ in redundant edges, but admissible schedules coincide).
func TestCholeskySTFMatchesHandBuilt(t *testing.T) {
	for _, N := range []int{1, 2, 4, 6, 10} {
		gSTF, err := CholeskySTF(N)
		if err != nil {
			t.Fatal(err)
		}
		gHand := workloads.Cholesky(N)
		if gSTF.Len() != gHand.Len() {
			t.Fatalf("N=%d: STF %d tasks, hand-built %d", N, gSTF.Len(), gHand.Len())
		}
		pl := platform.NewPlatform(4, 2)
		rSTF, err := core.ScheduleDAG(gSTF, pl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rHand, err := core.ScheduleDAG(gHand, pl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d := rSTF.Makespan() - rHand.Makespan(); d > 1e-9 || d < -1e-9 {
			t.Errorf("N=%d: STF makespan %v, hand-built %v", N, rSTF.Makespan(), rHand.Makespan())
		}
		if err := rSTF.Schedule.Validate(gSTF.Tasks(), gSTF); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCholeskySTFDeterministic rebuilds the STF Cholesky graph and
// requires the same edge order every time: the order of Preds and Succs
// sets the ready tracker's release order, and with it the queue order
// among tasks of equal ρ.
func TestCholeskySTFDeterministic(t *testing.T) {
	for _, N := range []int{2, 6, 10} {
		first, err := CholeskySTF(N)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 20; rep++ {
			g, err := CholeskySTF(N)
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < first.Len(); id++ {
				if !slices.Equal(g.Preds(id), first.Preds(id)) || !slices.Equal(g.Succs(id), first.Succs(id)) {
					t.Fatalf("N=%d rebuild %d: task %d has preds %v succs %v, first build %v %v",
						N, rep, id, g.Preds(id), g.Succs(id), first.Preds(id), first.Succs(id))
				}
			}
		}
	}
}

func TestCholeskySTFInvalid(t *testing.T) {
	if _, err := CholeskySTF(0); err == nil {
		t.Error("N=0 accepted")
	}
}
