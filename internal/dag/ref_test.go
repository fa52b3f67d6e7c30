package dag_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// refTopoOrder is TopoOrder as it was before the FIFO pass: Kahn's
// algorithm with the ready set in a min-heap on IDs, smallest ID first.
func refTopoOrder(g *dag.Graph) ([]int, error) {
	n := g.Len()
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = len(g.Preds(id))
	}
	// Min-heap on IDs for determinism.
	ready := &intHeap{}
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			ready.push(id)
		}
	}
	order := make([]int, 0, n)
	for ready.len() > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, s := range g.Succs(id) {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: graph contains a cycle (%d of %d tasks ordered)", len(order), n)
	}
	return order, nil
}

// refNodeWeight is NodeWeight with math.Min, as it was before the
// builtin min.
func refNodeWeight(t platform.Task, w dag.Weighting, pl platform.Platform) float64 {
	switch w {
	case dag.WeightAvg:
		m, n := float64(pl.CPUs), float64(pl.GPUs)
		return (m*t.CPUTime + n*t.GPUTime) / (m + n)
	case dag.WeightMin:
		return math.Min(t.CPUTime, t.GPUTime)
	case dag.WeightCPU:
		return t.CPUTime
	case dag.WeightGPU:
		return t.GPUTime
	default:
		panic(fmt.Sprintf("dag: unknown weighting %d", int(w)))
	}
}

// refBottomLevels is BottomLevels as it was before the single tight
// pass: the heap order, a NodeWeight call and math.Max per node.
func refBottomLevels(g *dag.Graph, w dag.Weighting, pl platform.Platform) ([]float64, error) {
	order, err := refTopoOrder(g)
	if err != nil {
		return nil, err
	}
	bl := make([]float64, g.Len())
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var best float64
		for _, s := range g.Succs(id) {
			best = math.Max(best, bl[s])
		}
		bl[id] = refNodeWeight(g.Task(id), w, pl) + best
	}
	return bl, nil
}

// intHeap is a tiny min-heap of ints used by refTopoOrder.
type intHeap struct{ xs []int }

func (h *intHeap) len() int { return len(h.xs) }

func (h *intHeap) push(x int) {
	h.xs = append(h.xs, x)
	i := len(h.xs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.xs[p] <= h.xs[i] {
			break
		}
		h.xs[p], h.xs[i] = h.xs[i], h.xs[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.xs) && h.xs[l] < h.xs[small] {
			small = l
		}
		if r < len(h.xs) && h.xs[r] < h.xs[small] {
			small = r
		}
		if small == i {
			break
		}
		h.xs[i], h.xs[small] = h.xs[small], h.xs[i]
		i = small
	}
	return top
}

// refGraph is Graph's adjacency as it was before AddEdge carved its rows
// out of blocks: a [][]int row per task grown by append, with a linear
// scan for parallel edges and the same panics.
type refGraph struct {
	succ, pred [][]int
	edges      int
}

func (r *refGraph) addTask() {
	r.succ = append(r.succ, nil)
	r.pred = append(r.pred, nil)
}

func (r *refGraph) addEdge(u, v int) {
	n := len(r.succ)
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("dag: edge (%d,%d) out of range [0,%d)", u, v, n))
	}
	if u == v {
		panic(fmt.Sprintf("dag: self-loop on task %d", u))
	}
	for _, w := range r.succ[u] {
		if w == v {
			return
		}
	}
	r.succ[u] = append(r.succ[u], v)
	r.pred[v] = append(r.pred[v], u)
	r.edges++
}

// topoOrder is TopoOrder's FIFO Kahn pass over the reference rows, so
// the two orders agree only if the rows hold the same edges in the same
// insertion order.
func (r *refGraph) topoOrder() ([]int, error) {
	n := len(r.succ)
	indeg := make([]int, n)
	var order []int
	for id, ps := range r.pred {
		indeg[id] = len(ps)
		if len(ps) == 0 {
			order = append(order, id)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, s := range r.succ[order[head]] {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: graph contains a cycle (%d of %d tasks ordered)", len(order), n)
	}
	return order, nil
}

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// maxAdjacencySteps cuts fuzz inputs: every step compares every row.
const maxAdjacencySteps = 600

// FuzzAdjacencyMatchesReference drives a Graph and a refGraph through
// the same AddTask/AddEdge sequence and compares Len, Edges, Succs, Preds,
// InDegree and TopoOrder after every step. The input is read three bytes
// a step: an operation byte, whose low two bits 0 add a task and
// otherwise an edge, and the edge's ends, each a byte mod n+2 minus one,
// so ends of -1 and n (out of range) and self-loops occur and must panic
// alike in both. Few tasks make parallel edges common. Every row read at
// one step must still hold the same IDs at the next: a row carved over
// another's slot would show as a changed read.
func FuzzAdjacencyMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 2, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 0, 1, 1, 4, 0})
	for seed := int64(0); seed < 4; seed++ {
		ops := make([]byte, 3*maxAdjacencySteps)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		g, ref := dag.New(), &refGraph{}
		var held, heldCopy [][]int
		for step := 0; step < maxAdjacencySteps && 3*step+2 < len(ops); step++ {
			op, a, b := ops[3*step], ops[3*step+1], ops[3*step+2]
			if op&3 == 0 {
				g.AddTask(platform.Task{CPUTime: 1, GPUTime: 1})
				ref.addTask()
			} else {
				n := len(ref.succ)
				u, v := int(a)%(n+2)-1, int(b)%(n+2)-1
				got := recovered(func() { g.AddEdge(u, v) })
				want := recovered(func() { ref.addEdge(u, v) })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d: AddEdge(%d, %d) panicked with %v, reference with %v", step, u, v, got, want)
				}
			}
			for i, row := range held {
				if !slices.Equal(row, heldCopy[i]) {
					t.Fatalf("step %d: row %d read at the step before changed from %v to %v", step, i, heldCopy[i], row)
				}
			}
			held, heldCopy = held[:0], heldCopy[:0]
			if g.Len() != len(ref.succ) || g.Edges() != ref.edges {
				t.Fatalf("step %d: Len, Edges = %d, %d; reference %d, %d", step, g.Len(), g.Edges(), len(ref.succ), ref.edges)
			}
			for id := 0; id < g.Len(); id++ {
				succ, pred := g.Succs(id), g.Preds(id)
				if !slices.Equal(succ, ref.succ[id]) || !slices.Equal(pred, ref.pred[id]) || g.InDegree(id) != len(ref.pred[id]) {
					t.Fatalf("step %d: task %d has Succs %v, Preds %v, InDegree %d; reference %v, %v, %d",
						step, id, succ, pred, g.InDegree(id), ref.succ[id], ref.pred[id], len(ref.pred[id]))
				}
				held = append(held, succ, pred)
				heldCopy = append(heldCopy, slices.Clone(succ), slices.Clone(pred))
			}
			order, err := g.TopoOrder()
			wantOrder, wantErr := ref.topoOrder()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(order, wantOrder) {
				t.Fatalf("step %d: TopoOrder = %v, %v; reference %v, %v", step, order, err, wantOrder, wantErr)
			}
		}
	})
}

type namedGraph struct {
	name string
	g    *dag.Graph
}

// permuted returns a copy of g in which task i has ID perm[i], with every
// edge added in g's order, so some edges run from a higher ID to a lower
// one.
func permuted(g *dag.Graph, rng *rand.Rand) *dag.Graph {
	perm := rng.Perm(g.Len())
	inv := make([]int, g.Len())
	for i, p := range perm {
		inv[p] = i
	}
	out := dag.New()
	for _, i := range inv {
		out.AddTask(g.Task(i))
	}
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Succs(u) {
			out.AddEdge(perm[u], perm[v])
		}
	}
	return out
}

// referenceGraphs returns every factorization up to N=24, wavefronts,
// bags of chains, seeded random layered DAGs, three graphs of times
// Task.Validate rejects, and a copy of each with its task IDs permuted.
func referenceGraphs() []namedGraph {
	var gs []namedGraph
	for _, f := range workloads.Factorizations() {
		for n := 1; n <= 24; n++ {
			g, err := workloads.Build(f, n)
			if err != nil {
				panic(err)
			}
			gs = append(gs, namedGraph{fmt.Sprintf("%s-%d", f, n), g})
		}
	}
	for _, n := range []int{1, 2, 5, 16} {
		gs = append(gs, namedGraph{fmt.Sprintf("wavefront-%d", n), workloads.DefaultWavefront(n)})
	}
	for _, cl := range [][2]int{{1, 1}, {3, 7}, {16, 10}} {
		g := workloads.BagOfChains(cl[0], cl[1], platform.Task{CPUTime: 10, GPUTime: 1}, platform.Task{CPUTime: 2, GPUTime: 3})
		gs = append(gs, namedGraph{fmt.Sprintf("chains-%dx%d", cl[0], cl[1]), g})
	}
	for seed := int64(0); seed < 40; seed++ {
		cfg := dag.DefaultRandomLayeredConfig()
		if seed%2 == 1 {
			cfg.Layers, cfg.WidthMax, cfg.SkipProb = 20, 30, 0.3
		}
		gs = append(gs, namedGraph{fmt.Sprintf("random-%d", seed), dag.RandomLayered(cfg, rand.New(rand.NewSource(seed)))})
	}
	// Times Task.Validate rejects: ±0, ±Inf and NaN, alone and mixed.
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	for i, times := range [][]float64{{0, negZero, inf, -inf}, {0, negZero, nan}, {negZero, inf, nan, 1}} {
		odd := dag.New()
		for j := 0; j < 12; j++ {
			odd.AddTask(platform.Task{CPUTime: times[j%len(times)], GPUTime: times[(j/len(times))%len(times)]})
		}
		for _, e := range [][2]int{{0, 1}, {1, 5}, {2, 5}, {3, 5}, {4, 0}, {5, 6}, {7, 6}, {8, 9}, {10, 9}, {11, 8}} {
			odd.AddEdge(e[0], e[1])
		}
		gs = append(gs, namedGraph{fmt.Sprintf("edge-times-%d", i), odd})
	}

	rng := rand.New(rand.NewSource(7))
	for i, n := 0, len(gs); i < n; i++ {
		gs = append(gs, namedGraph{gs[i].name + "-permuted", permuted(gs[i].g, rng)})
	}
	return gs
}

// sameFloat reports whether got is want bit for bit, counting every NaN
// as the same NaN. The one exception is the builtins' documented
// departure from math.Max and math.Min: where a NaN meets the infinity
// math lets win, max(+Inf, NaN) and min(-Inf, NaN), got is NaN and want
// that infinity.
func sameFloat(got, want float64) bool {
	if math.IsNaN(got) {
		return math.IsNaN(want) || math.IsInf(want, 0)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

func TestTopoOrderIsTopological(t *testing.T) {
	backEdges := 0
	for _, ng := range referenceGraphs() {
		g := ng.g
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("%s: %v", ng.name, err)
		}
		if len(order) != g.Len() {
			t.Fatalf("%s: order has %d of %d tasks", ng.name, len(order), g.Len())
		}
		pos := make([]int, g.Len())
		for i := range pos {
			pos[i] = -1
		}
		for i, id := range order {
			if id < 0 || id >= g.Len() || pos[id] >= 0 {
				t.Fatalf("%s: order %v is not a permutation of the IDs", ng.name, order)
			}
			pos[id] = i
		}
		for u := 0; u < g.Len(); u++ {
			for _, v := range g.Succs(u) {
				if pos[u] >= pos[v] {
					t.Fatalf("%s: order puts %d at %d after its successor %d at %d", ng.name, u, pos[u], v, pos[v])
				}
				if u > v {
					backEdges++
				}
			}
		}
	}
	if backEdges == 0 {
		t.Fatal("no graph has an edge from a higher ID to a lower one")
	}
}

func TestBottomLevelsMatchReference(t *testing.T) {
	pls := []platform.Platform{platform.NewPlatform(20, 4), platform.NewPlatform(3, 1), platform.NewPlatform(1, 0), platform.NewPlatform(0, 2)}
	weightings := []dag.Weighting{dag.WeightAvg, dag.WeightMin, dag.WeightCPU, dag.WeightGPU}
	for _, ng := range referenceGraphs() {
		for _, pl := range pls {
			for _, w := range weightings {
				want, err := refBottomLevels(ng.g, w, pl)
				if err != nil {
					t.Fatalf("%s: %v", ng.name, err)
				}
				got, err := ng.g.BottomLevels(w, pl)
				if err != nil {
					t.Fatalf("%s: %v", ng.name, err)
				}
				for id := range want {
					if !sameFloat(got[id], want[id]) {
						t.Fatalf("%s %d+%d %v: bottom level of %d = %v (%#x), reference %v (%#x)",
							ng.name, pl.CPUs, pl.GPUs, w, id, got[id], math.Float64bits(got[id]), want[id], math.Float64bits(want[id]))
					}
				}
				var wantCP float64
				for _, v := range want {
					wantCP = math.Max(wantCP, v)
				}
				cp, err := ng.g.CriticalPath(w, pl)
				if err != nil {
					t.Fatalf("%s: %v", ng.name, err)
				}
				if !sameFloat(cp, wantCP) {
					t.Fatalf("%s %d+%d %v: critical path %v, reference %v", ng.name, pl.CPUs, pl.GPUs, w, cp, wantCP)
				}
			}
		}
	}
}

// cyclicGraphs returns graphs with a cycle: a 2-cycle, a 3-cycle behind a
// source, and a back edge added to a Cholesky graph and to a copy with
// permuted IDs.
func cyclicGraphs() []namedGraph {
	two := dag.New()
	two.AddTask(platform.Task{CPUTime: 1, GPUTime: 1})
	two.AddTask(platform.Task{CPUTime: 1, GPUTime: 1})
	two.AddEdge(0, 1)
	two.AddEdge(1, 0)

	three := dag.New()
	for i := 0; i < 5; i++ {
		three.AddTask(platform.Task{CPUTime: 2, GPUTime: 1})
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {0, 4}} {
		three.AddEdge(e[0], e[1])
	}

	chol := workloads.Cholesky(6)
	sinks := chol.Sinks()
	chol.AddEdge(sinks[len(sinks)-1], chol.Sources()[0])
	perm := permuted(workloads.Cholesky(6), rand.New(rand.NewSource(3)))
	perm.AddEdge(perm.Sinks()[0], perm.Sources()[0])
	return []namedGraph{{"2-cycle", two}, {"3-cycle", three}, {"cholesky-6-back-edge", chol}, {"cholesky-6-permuted-back-edge", perm}}
}

func TestCyclicGraphsRejected(t *testing.T) {
	pl := platform.NewPlatform(2, 1)
	for _, ng := range cyclicGraphs() {
		g := ng.g
		_, wantErr := refTopoOrder(g)
		if wantErr == nil {
			t.Fatalf("%s: reference found no cycle", ng.name)
		}
		if order, err := g.TopoOrder(); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: TopoOrder = %v, %v; want the error %q", ng.name, order, err, wantErr)
		}
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a cyclic graph", ng.name)
		}
		for _, w := range []dag.Weighting{dag.WeightAvg, dag.WeightMin, dag.WeightCPU, dag.WeightGPU} {
			if _, err := g.BottomLevels(w, pl); err == nil {
				t.Errorf("%s: BottomLevels(%v) accepted a cyclic graph", ng.name, w)
			}
		}
		if _, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true}); err == nil {
			t.Errorf("%s: core.ScheduleDAG accepted a cyclic graph", ng.name)
		}
		if _, err := sched.HEFT(g, pl, dag.WeightMin); err == nil {
			t.Errorf("%s: sched.HEFT accepted a cyclic graph", ng.name)
		}
	}
}

// benchGraphs returns the factorizations at N=16, dag-wide's size, and
// at N=64.
func benchGraphs(b *testing.B) []namedGraph {
	var gs []namedGraph
	for _, n := range []int{16, 64} {
		for _, f := range workloads.Factorizations() {
			g, err := workloads.Build(f, n)
			if err != nil {
				b.Fatal(err)
			}
			gs = append(gs, namedGraph{fmt.Sprintf("%s-%d", f, n), g})
		}
	}
	return gs
}

// BenchmarkTopoOrder measures one topological sort of a factorization
// graph, the pass Validate and every bottom-level computation make.
func BenchmarkTopoOrder(b *testing.B) {
	for _, ng := range benchGraphs(b) {
		b.Run(ng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ng.g.TopoOrder(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBottomLevels measures the min-weighted bottom levels of a
// factorization graph on 20+4, HeteroPrio-min's priorities.
func BenchmarkBottomLevels(b *testing.B) {
	pl := platform.NewPlatform(20, 4)
	for _, ng := range benchGraphs(b) {
		b.Run(ng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ng.g.BottomLevels(dag.WeightMin, pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
