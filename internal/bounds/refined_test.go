package bounds_test

import (
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
)

// heftMakespan returns the makespan of a HEFT schedule, an upper bound on
// the optimum used to sanity-check lower bounds.
func heftMakespan(g *dag.Graph, pl platform.Platform) (float64, error) {
	s, err := sched.HEFT(g, pl, dag.WeightMin)
	if err != nil {
		return 0, err
	}
	return s.Makespan(), nil
}

func TestDAGLowerRefinedAtLeastBase(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		g := dag.RandomLayered(dag.DefaultRandomLayeredConfig(), rng)
		pl := platform.NewPlatform(1+rng.Intn(4), 1+rng.Intn(3))
		base, err := bounds.DAGLower(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := bounds.DAGLowerRefined(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		if refined < base-1e-9 {
			t.Fatalf("trial %d: refined %v below base %v", trial, refined, base)
		}
	}
}

// TestDAGLowerRefinedStrictlyStronger builds the shape the refinement
// targets: a heavy sequential chain feeding a wide parallel block. The
// block cannot start before the chain ends, so theta + area beats both
// the critical path and the global area bound.
func TestDAGLowerRefinedStrictlyStronger(t *testing.T) {
	g := dag.New()
	chainTask := platform.Task{CPUTime: 10, GPUTime: 10}
	prev := -1
	for i := 0; i < 5; i++ {
		id := g.AddTask(chainTask)
		if prev >= 0 {
			g.AddEdge(prev, id)
		}
		prev = id
	}
	wide := platform.Task{CPUTime: 8, GPUTime: 8}
	for i := 0; i < 12; i++ {
		id := g.AddTask(wide)
		g.AddEdge(prev, id)
	}
	pl := platform.NewPlatform(2, 2)
	base, err := bounds.DAGLower(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := bounds.DAGLowerRefined(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	// Chain = 50, block area = 12*8/4 = 24: refined >= 74.
	if refined < 74-1e-9 {
		t.Errorf("refined = %v, want >= 74", refined)
	}
	if refined <= base+1e-9 {
		t.Errorf("refined %v not stronger than base %v on the adversarial shape", refined, base)
	}
}

// TestDAGLowerRefinedBackwardSweep mirrors the shape: a wide block feeding
// a heavy chain; only the backward (reversed-DAG) sweep sees it. The
// block's tasks run twice as long on a GPU, so the sweep must subtract
// their min(p, q), not max(p, q), from their bottom levels.
func TestDAGLowerRefinedBackwardSweep(t *testing.T) {
	g := dag.New()
	wide := platform.Task{CPUTime: 8, GPUTime: 16}
	var sources []int
	for i := 0; i < 12; i++ {
		sources = append(sources, g.AddTask(wide))
	}
	chainTask := platform.Task{CPUTime: 10, GPUTime: 10}
	prev := -1
	for i := 0; i < 5; i++ {
		id := g.AddTask(chainTask)
		if prev >= 0 {
			g.AddEdge(prev, id)
		} else {
			for _, s := range sources {
				g.AddEdge(s, id)
			}
		}
		prev = id
	}
	pl := platform.NewPlatform(2, 2)
	refined, err := bounds.DAGLowerRefined(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	// Chain = 50; the block's area on 2+2 is 32 (8 tasks on the CPUs, 4
	// on the GPUs): refined >= 82.
	if refined < 82-1e-9 {
		t.Errorf("refined = %v, want >= 82 (backward sweep)", refined)
	}
}

// Property: the refined bound never exceeds the makespan of an actual
// schedule (here HEFT's), i.e. it remains a valid lower bound.
func TestDAGLowerRefinedIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		g := dag.RandomLayered(dag.DefaultRandomLayeredConfig(), rng)
		pl := platform.NewPlatform(1+rng.Intn(4), 1+rng.Intn(3))
		refined, err := bounds.DAGLowerRefined(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := heftMakespan(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		if refined > ms+1e-6 {
			t.Fatalf("trial %d: refined bound %v exceeds a real schedule %v", trial, refined, ms)
		}
	}
}

func TestDAGLowerRefinedCycleError(t *testing.T) {
	g := dag.New()
	a := g.AddTask(platform.Task{CPUTime: 1, GPUTime: 1})
	b := g.AddTask(platform.Task{CPUTime: 1, GPUTime: 1})
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := bounds.DAGLowerRefined(g, platform.NewPlatform(1, 1)); err == nil {
		t.Error("cycle accepted")
	}
}
