// Package dag implements the task-graph substrate: directed acyclic graphs
// whose nodes are platform.Task values and whose edges are precedence
// constraints. It provides the graph structure, topological utilities,
// bottom-level (priority) computations under several node-weighting schemes,
// critical-path bounds and a ready-set tracker used by the online
// schedulers.
package dag

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/platform"
)

// Graph is a DAG of tasks. Node indices coincide with task IDs: the task
// with ID i is stored at Tasks[i]. Edges go from predecessor to successor.
type Graph struct {
	tasks platform.Instance
	succ  [][]int
	pred  [][]int
	edges int
	// AddEdge carves the adjacency rows out of blocks: spare is the unused
	// tail of the newest one, blocks the length of all of them together.
	// A graph without edges has no block.
	spare  []int
	blocks int
}

// minRowCap is the capacity of an adjacency row's first slot, and
// minBlock the length of a graph's first block.
const (
	minRowCap = 2
	minBlock  = 64
)

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddTask appends a task to the graph and returns its ID. The task's ID
// field is overwritten with the assigned ID.
func (g *Graph) AddTask(t platform.Task) int {
	id := len(g.tasks)
	t.ID = id
	g.tasks = append(g.tasks, t)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddEdge adds a precedence constraint from task u to task v (u must finish
// before v starts). Parallel edges are ignored. It panics on out-of-range
// IDs or self-loops; cycle detection is deferred to Validate.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= len(g.tasks) || v < 0 || v >= len(g.tasks) {
		panic(fmt.Sprintf("dag: edge (%d,%d) out of range [0,%d)", u, v, len(g.tasks)))
	}
	if u == v {
		panic(fmt.Sprintf("dag: self-loop on task %d", u))
	}
	for _, w := range g.succ[u] {
		if w == v {
			return
		}
	}
	g.succ[u] = g.push(g.succ[u], v)
	g.pred[v] = g.push(g.pred[v], u)
	g.edges++
}

// push appends x to an adjacency row. A full row moves to a slot of
// twice its capacity carved from the spare block, and its old slot stays
// unused. Each slot is capped at its own length, so no row grows into
// another. A new block is as long as all earlier ones together, so a
// graph allocates O(log e) blocks for e edges; rows carved from an earlier
// block stay where they are.
func (g *Graph) push(row []int, x int) []int {
	if len(row) == cap(row) {
		c := max(2*cap(row), minRowCap)
		if len(g.spare) < c {
			n := max(c, minBlock, g.blocks)
			g.blocks += n
			g.spare = make([]int, n)
		}
		next := g.spare[:len(row):c]
		g.spare = g.spare[c:]
		copy(next, row)
		row = next
	}
	return append(row, x)
}

// Len returns the number of tasks in the graph.
func (g *Graph) Len() int { return len(g.tasks) }

// Edges returns the number of distinct precedence edges.
func (g *Graph) Edges() int { return g.edges }

// Task returns the task with the given ID.
func (g *Graph) Task(id int) platform.Task { return g.tasks[id] }

// SetPriority sets the priority hint of task id.
func (g *Graph) SetPriority(id int, prio float64) { g.tasks[id].Priority = prio }

// Tasks returns the underlying instance (all tasks, ignoring dependencies).
// The returned slice is shared with the graph; callers must not mutate it.
func (g *Graph) Tasks() platform.Instance { return g.tasks }

// Succs returns the successor IDs of task id (shared slice; do not mutate).
func (g *Graph) Succs(id int) []int { return g.succ[id] }

// Preds returns the predecessor IDs of task id (shared slice; do not mutate).
func (g *Graph) Preds(id int) []int { return g.pred[id] }

// InDegree returns the number of predecessors of task id.
func (g *Graph) InDegree(id int) int { return len(g.pred[id]) }

// Sources returns the IDs of tasks with no predecessors, in ID order.
func (g *Graph) Sources() []int {
	var out []int
	for id := range g.tasks {
		if len(g.pred[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Sinks returns the IDs of tasks with no successors, in ID order.
func (g *Graph) Sinks() []int {
	var out []int
	for id := range g.tasks {
		if len(g.succ[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// TopoOrder returns a topological order of the task IDs, or an error if
// the graph has a cycle. It is Kahn's algorithm with a FIFO ready set, so
// it runs in O(n + e): the sources come first, in ID order, then each task
// once its last predecessor has been taken, with the successors of a task
// in edge-insertion order. Callers may not rely on any particular
// topological order: bottom levels, top levels, critical paths and the
// acyclicity check come out the same under every one.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.tasks)
	indeg := make([]int32, n)
	// order doubles as the FIFO queue: order[head:] are ready, not yet
	// taken. A task is appended once, when its last predecessor is taken.
	order := make([]int, 0, n)
	for id, ps := range g.pred {
		indeg[id] = int32(len(ps))
		if len(ps) == 0 {
			order = append(order, id)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, s := range g.succ[order[head]] {
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

// Validate checks task well-formedness and acyclicity.
func (g *Graph) Validate() error {
	if err := g.tasks.Validate(); err != nil {
		return err
	}
	_, err := g.TopoOrder()
	return err
}

// Weighting selects how a task's scalar node weight is derived from its two
// processing times when computing bottom levels and critical paths.
type Weighting int

const (
	// WeightAvg uses the resource-count weighted average execution time,
	// the scheme of the standard HEFT algorithm ("avg" in the paper).
	WeightAvg Weighting = iota
	// WeightMin uses min(p, q), the optimistic scheme ("min" in the paper).
	WeightMin
	// WeightCPU uses the CPU time p.
	WeightCPU
	// WeightGPU uses the GPU time q.
	WeightGPU
)

// String implements fmt.Stringer.
func (w Weighting) String() string {
	switch w {
	case WeightAvg:
		return "avg"
	case WeightMin:
		return "min"
	case WeightCPU:
		return "cpu"
	case WeightGPU:
		return "gpu"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// NodeWeight returns the scalar weight of task t under scheme w on
// platform pl. For WeightAvg the average is weighted by worker counts:
// (m*p + n*q) / (m+n), matching HEFT's mean execution cost across all
// processors of an unrelated platform.
func NodeWeight(t platform.Task, w Weighting, pl platform.Platform) float64 {
	return weigh(w, pl).of(&t)
}

// weigher is a Weighting resolved against a platform: checked, and with
// WeightAvg's worker counts converted, once per graph pass rather than
// once per node.
type weigher struct {
	w    Weighting
	m, n float64
}

func weigh(w Weighting, pl platform.Platform) weigher {
	if w < WeightAvg || w > WeightGPU {
		panic(fmt.Sprintf("dag: unknown weighting %d", int(w)))
	}
	return weigher{w: w, m: float64(pl.CPUs), n: float64(pl.GPUs)}
}

// of returns the weight of t. It reads the two times in place and
// inlines, so a pass over a graph neither calls nor copies a task per
// node.
func (r weigher) of(t *platform.Task) float64 {
	switch r.w {
	case WeightAvg:
		return (r.m*t.CPUTime + r.n*t.GPUTime) / (r.m + r.n)
	case WeightMin:
		return min(t.CPUTime, t.GPUTime)
	case WeightCPU:
		return t.CPUTime
	}
	return t.GPUTime
}

// BottomLevels returns, for each task, the maximum total node weight of a
// path from that task to a sink, inclusive of the task itself. This is the
// standard priority scheme for heterogeneous list scheduling (Section 6.2).
// It is one reverse pass over a topological order. Its builtin min and max
// agree with math.Min and math.Max on ±0, ±Inf and NaN, except where a NaN
// meets the infinity math lets win (max(+Inf, NaN) is NaN, not +Inf):
// only times that Task.Validate rejects differ.
func (g *Graph) BottomLevels(w Weighting, pl platform.Platform) ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	r := weigh(w, pl)
	bl := make([]float64, len(g.tasks))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var best float64
		for _, s := range g.succ[id] {
			best = max(best, bl[s])
		}
		bl[id] = r.of(&g.tasks[id]) + best
	}
	return bl, nil
}

// AssignBottomLevelPriorities computes bottom levels under scheme w and
// stores them as task priorities, returning the critical-path length (the
// maximum bottom level). It writes nothing unless pl is a valid platform:
// without workers, WeightAvg's levels would be NaN.
func (g *Graph) AssignBottomLevelPriorities(w Weighting, pl platform.Platform) (float64, error) {
	if err := pl.Validate(); err != nil {
		return 0, err
	}
	bl, err := g.BottomLevels(w, pl)
	if err != nil {
		return 0, err
	}
	var cp float64
	for id, v := range bl {
		g.tasks[id].Priority = v
		cp = max(cp, v)
	}
	return cp, nil
}

// CriticalPath returns the maximum total node weight over all paths of the
// graph under scheme w. With WeightMin this is a valid lower bound on the
// optimal makespan regardless of the platform.
func (g *Graph) CriticalPath(w Weighting, pl platform.Platform) (float64, error) {
	bl, err := g.BottomLevels(w, pl)
	if err != nil {
		return 0, err
	}
	var cp float64
	for _, v := range bl {
		cp = max(cp, v)
	}
	return cp, nil
}

// LongestPathTasks returns the IDs of one critical path under scheme w,
// from a source to a sink.
func (g *Graph) LongestPathTasks(w Weighting, pl platform.Platform) ([]int, error) {
	bl, err := g.BottomLevels(w, pl)
	if err != nil {
		return nil, err
	}
	// Start at the task with the largest bottom level, then repeatedly follow
	// the successor whose bottom level dominates.
	cur, best := -1, math.Inf(-1)
	for id, v := range bl {
		if len(g.pred[id]) == 0 && v > best {
			cur, best = id, v
		}
	}
	if cur < 0 {
		return nil, nil
	}
	path := []int{cur}
	for len(g.succ[cur]) > 0 {
		next, nb := -1, math.Inf(-1)
		for _, s := range g.succ[cur] {
			if bl[s] > nb {
				next, nb = s, bl[s]
			}
		}
		cur = next
		path = append(path, cur)
	}
	return path, nil
}

// DOT renders the graph in Graphviz DOT format, labelling nodes with their
// names and processing times.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=TB;\n")
	for id, t := range g.tasks {
		label := t.Name
		if label == "" {
			label = fmt.Sprintf("t%d", id)
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\\np=%.3g q=%.3g\"];\n", id, label, t.CPUTime, t.GPUTime)
	}
	for u := range g.tasks {
		ss := append([]int(nil), g.succ[u]...)
		sort.Ints(ss)
		for _, v := range ss {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", u, v)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// FromInstance builds a dependency-free graph over the given tasks,
// preserving their order. Task IDs are reassigned sequentially.
func FromInstance(in platform.Instance) *Graph {
	g := &Graph{
		tasks: make(platform.Instance, 0, len(in)),
		succ:  make([][]int, 0, len(in)),
		pred:  make([][]int, 0, len(in)),
	}
	for _, t := range in {
		g.AddTask(t)
	}
	return g
}
