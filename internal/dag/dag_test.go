package dag

import (
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func mkTask(p, q float64) platform.Task {
	return platform.Task{CPUTime: p, GPUTime: q}
}

// diamond builds the 4-node diamond 0 -> {1,2} -> 3.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.AddTask(mkTask(1, 1))
	b := g.AddTask(mkTask(2, 1))
	c := g.AddTask(mkTask(3, 1))
	d := g.AddTask(mkTask(4, 1))
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	return g
}

func TestAddTaskAssignsIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		if id := g.AddTask(mkTask(1, 1)); id != i {
			t.Fatalf("AddTask returned %d, want %d", id, i)
		}
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
}

func TestAddEdgeDedup(t *testing.T) {
	g := diamond(t)
	before := g.Edges()
	g.AddEdge(0, 1) // duplicate
	if g.Edges() != before {
		t.Errorf("duplicate edge changed edge count %d -> %d", before, g.Edges())
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := diamond(t)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("out of range", func() { g.AddEdge(0, 99) })
	mustPanic("self loop", func() { g.AddEdge(2, 2) })
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t)
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Errorf("Sources = %v, want [0]", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Errorf("Sinks = %v, want [3]", s)
	}
	if g.InDegree(3) != 2 {
		t.Errorf("InDegree(3) = %d, want 2", g.InDegree(3))
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Succs(u) {
			if pos[u] >= pos[v] {
				t.Errorf("topo order violates edge (%d,%d): %v", u, v, order)
			}
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New()
	a := g.AddTask(mkTask(1, 1))
	b := g.AddTask(mkTask(1, 1))
	// Build a 2-cycle by editing adjacency through AddEdge both ways.
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate should fail on a cyclic graph")
	}
}

func TestValidateBadTask(t *testing.T) {
	g := New()
	g.AddTask(platform.Task{CPUTime: -1, GPUTime: 1})
	if err := g.Validate(); err == nil {
		t.Error("Validate should fail on invalid task")
	}
}

func TestNodeWeight(t *testing.T) {
	pl := platform.NewPlatform(3, 1)
	task := mkTask(8, 4)
	if got := NodeWeight(task, WeightAvg, pl); got != (3*8+1*4)/4.0 {
		t.Errorf("avg weight = %v, want 7", got)
	}
	if got := NodeWeight(task, WeightMin, pl); got != 4 {
		t.Errorf("min weight = %v, want 4", got)
	}
	if got := NodeWeight(task, WeightCPU, pl); got != 8 {
		t.Errorf("cpu weight = %v, want 8", got)
	}
	if got := NodeWeight(task, WeightGPU, pl); got != 4 {
		t.Errorf("gpu weight = %v, want 4", got)
	}
}

func TestWeightingString(t *testing.T) {
	names := map[Weighting]string{WeightAvg: "avg", WeightMin: "min", WeightCPU: "cpu", WeightGPU: "gpu"}
	for w, want := range names {
		if w.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(w), w.String(), want)
		}
	}
}

func TestBottomLevels(t *testing.T) {
	g := diamond(t)
	pl := platform.NewPlatform(1, 0) // weight = CPU time under avg
	bl, err := g.BottomLevels(WeightAvg, pl)
	if err != nil {
		t.Fatal(err)
	}
	// Node weights: 1,2,3,4. Bottom levels: d=4, b=6, c=7, a=8.
	want := []float64{8, 6, 7, 4}
	for id, w := range want {
		if math.Abs(bl[id]-w) > 1e-12 {
			t.Errorf("bl[%d] = %v, want %v", id, bl[id], w)
		}
	}
	cp, err := g.CriticalPath(WeightAvg, pl)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 8 {
		t.Errorf("critical path = %v, want 8", cp)
	}
}

func TestAssignBottomLevelPriorities(t *testing.T) {
	g := diamond(t)
	pl := platform.NewPlatform(1, 0)
	cp, err := g.AssignBottomLevelPriorities(WeightAvg, pl)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 8 {
		t.Errorf("cp = %v, want 8", cp)
	}
	if g.Task(0).Priority != 8 || g.Task(3).Priority != 4 {
		t.Errorf("priorities not stored: %v, %v", g.Task(0).Priority, g.Task(3).Priority)
	}
	// A platform without workers is refused before any priority is
	// written: WeightAvg's levels on it are 0/0.
	empty := diamond(t)
	if _, err := empty.AssignBottomLevelPriorities(WeightAvg, platform.Platform{}); err == nil {
		t.Error("0+0 platform accepted")
	}
	for id := range empty.Len() {
		if p := empty.Task(id).Priority; p != 0 {
			t.Errorf("0+0 platform: task %d priority %v, want it untouched (0)", id, p)
		}
	}
}

func TestLongestPathTasks(t *testing.T) {
	g := diamond(t)
	pl := platform.NewPlatform(1, 0)
	path, err := g.LongestPathTasks(WeightAvg, pl)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 3} // through the weight-3 node
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestDOT(t *testing.T) {
	g := diamond(t)
	dot := g.DOT("diamond")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "n0 -> n1") {
		t.Errorf("DOT output missing pieces:\n%s", dot)
	}
}

func TestFromInstance(t *testing.T) {
	in := platform.Instance{mkTask(1, 1), mkTask(2, 1)}
	g := FromInstance(in)
	if g.Len() != 2 || g.Edges() != 0 {
		t.Errorf("FromInstance: len=%d edges=%d", g.Len(), g.Edges())
	}
	if len(g.Sources()) != 2 {
		t.Errorf("all tasks should be sources")
	}
}

func TestReadyTracker(t *testing.T) {
	g := diamond(t)
	rt := NewReadyTracker(g)
	if rt.Done() || rt.Remaining() != 4 {
		t.Fatal("fresh tracker state wrong")
	}
	first := rt.Drain()
	if len(first) != 1 || first[0] != 0 {
		t.Fatalf("initial ready = %v, want [0]", first)
	}
	rt.Complete(0)
	next := rt.Drain()
	if len(next) != 2 {
		t.Fatalf("after source, ready = %v, want 2 tasks", next)
	}
	rt.Complete(next[0])
	if rt.PendingReady() != 0 {
		t.Errorf("d should not be ready with one branch missing")
	}
	rt.Complete(next[1])
	last := rt.Drain()
	if len(last) != 1 || last[0] != 3 {
		t.Fatalf("final ready = %v, want [3]", last)
	}
	rt.Complete(3)
	if !rt.Done() || rt.Remaining() != 0 {
		t.Error("tracker should be done")
	}
	if !rt.IsCompleted(3) {
		t.Error("IsCompleted(3) should be true")
	}
}

// TestDrainSharedAllocFree: the simulator drains the newly ready tasks
// after every completion, so a pass over a whole graph allocates only
// what NewReadyTracker does, whatever the graph's length.
func TestDrainSharedAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pass := func(g *Graph) float64 {
		order := make([]int, 0, g.Len())
		n := testing.AllocsPerRun(3, func() {
			rt := NewReadyTracker(g)
			order = append(order[:0], rt.DrainShared()...)
			for i := 0; i < len(order); i++ {
				rt.Complete(order[i])
				order = append(order, rt.DrainShared()...)
			}
		})
		if len(order) != g.Len() {
			t.Fatalf("drained %d of %d tasks", len(order), g.Len())
		}
		return n
	}
	task := platform.Task{CPUTime: 1, GPUTime: 1}
	if short, long := pass(Chain(10, task)), pass(Chain(10000, task)); long != short {
		t.Errorf("a pass over 10,000 tasks allocates %v times, over 10 tasks %v", long, short)
	}
}

func TestReadyTrackerPanics(t *testing.T) {
	g := diamond(t)
	rt := NewReadyTracker(g)
	rt.Drain()
	rt.Complete(0)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("double complete", func() { rt.Complete(0) })
	mustPanic("premature complete", func() { rt.Complete(3) })
}

func TestChain(t *testing.T) {
	g := Chain(5, mkTask(2, 1))
	if g.Len() != 5 || g.Edges() != 4 {
		t.Fatalf("chain shape wrong: %d nodes %d edges", g.Len(), g.Edges())
	}
	cp, err := g.CriticalPath(WeightMin, platform.NewPlatform(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if cp != 5 {
		t.Errorf("chain critical path = %v, want 5", cp)
	}
}

func TestForkJoin(t *testing.T) {
	g := ForkJoin(4, mkTask(1, 1), mkTask(2, 2), mkTask(3, 3))
	if g.Len() != 6 || g.Edges() != 8 {
		t.Fatalf("forkjoin shape wrong: %d nodes %d edges", g.Len(), g.Edges())
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Error("forkjoin should have one source and one sink")
	}
	cp, err := g.CriticalPath(WeightMin, platform.NewPlatform(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if cp != 6 {
		t.Errorf("critical path = %v, want 6", cp)
	}
}

func TestRandomLayeredAcyclicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultRandomLayeredConfig()
		g := RandomLayered(cfg, rng)
		if err := g.Validate(); err != nil {
			return false
		}
		// Every non-first-layer task must have a predecessor: equivalently,
		// number of sources is at most the first layer's width (<= WidthMax).
		if len(g.Sources()) > cfg.WidthMax {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRandomLayeredDegenerateConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomLayered(RandomLayeredConfig{
		Layers: 0, WidthMin: 0, WidthMax: -1,
		CPUTimeMin: 1, CPUTimeMax: 2, AccelMin: 1, AccelMax: 2,
	}, rng)
	if g.Len() < 1 {
		t.Error("degenerate config should still produce at least one task")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

// Property: bottom levels are monotone along edges (bl[u] > bl[v] whenever
// u precedes v, since node weights are positive).
func TestBottomLevelMonotoneProperty(t *testing.T) {
	pl := platform.NewPlatform(4, 2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomLayered(DefaultRandomLayeredConfig(), rng)
		for _, w := range []Weighting{WeightAvg, WeightMin, WeightCPU, WeightGPU} {
			bl, err := g.BottomLevels(w, pl)
			if err != nil {
				return false
			}
			for u := 0; u < g.Len(); u++ {
				for _, v := range g.Succs(u) {
					if bl[u] <= bl[v] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
