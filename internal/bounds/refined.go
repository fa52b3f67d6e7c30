package bounds

import (
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
)

// DAGLowerRefined strengthens DAGLower with dependency-restricted area
// arguments in the spirit of reference [12] of the paper:
//
//   - forward: tasks whose earliest possible start (min-duration top
//     level) is at least theta can only execute after theta, so
//     C >= theta + AreaBound({v : top_min(v) >= theta});
//   - backward: tasks whose remaining critical path (min-duration bottom
//     level) is at least beta must all *start* before C - beta + w(v),
//     i.e. everything below them executes within a C - beta window:
//     C >= beta' + AreaBound({v : bottom_min(v) <= beta'}) for the
//     symmetric suffix argument.
//
// The sweep over the distinct level values includes theta = 0, so the
// result is always at least the plain DAGLower bound.
func DAGLowerRefined(g *dag.Graph, pl platform.Platform) (float64, error) {
	area, err := Lower(g.Tasks(), pl)
	if err != nil {
		return 0, err
	}
	top, err := topLevels(g)
	if err != nil {
		return 0, err
	}
	bottom, err := g.BottomLevels(dag.WeightMin, pl)
	if err != nil {
		return 0, err
	}
	// DAGLower, read off bottom instead of a second bottom-level pass:
	// the critical path is the largest min-weight bottom level, floored
	// at 0 as in Graph.CriticalPath.
	var cp float64
	for _, v := range bottom {
		cp = max(cp, v)
	}

	best := math.Max(area, cp)
	// Forward sweep: C >= theta + Area(tasks with top_min >= theta).
	fw, err := sweep(g, pl, top, false)
	if err != nil {
		return 0, err
	}
	best = math.Max(best, fw)
	// Backward sweep (mirror image): tasks with bottom_min >= beta must
	// *complete* their whole downstream chain after they run; every such
	// task finishes by C - (bottom_min - own min weight), so all of them
	// execute within [0, C - beta + max own weight]... the safe symmetric
	// statement uses the exit-side restriction: tasks whose bottom level
	// is >= beta all start before C - beta + w(v) <= C, and everything
	// with bottom_min <= beta executes inside the last beta time units is
	// NOT true in general. The valid mirror is on the reversed DAG, where
	// bottom levels become top levels.
	bw, err := sweep(g, pl, bottom, true)
	if err != nil {
		return 0, err
	}
	best = math.Max(best, bw)
	return best, nil
}

// topLevels returns, for each task, the maximum total min-duration weight
// of a path from a source up to but excluding the task (its earliest
// possible start time on an unbounded platform).
func topLevels(g *dag.Graph) ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	// min(p, q) is read in place: MinTime's value receiver would copy
	// the 48-byte task for every edge.
	tasks := g.Tasks()
	top := make([]float64, g.Len())
	for _, id := range order {
		var best float64
		for _, p := range g.Preds(id) {
			best = max(best, top[p]+min(tasks[p].CPUTime, tasks[p].GPUTime))
		}
		top[id] = best
	}
	return top, nil
}

// sweep computes max over theta of theta + AreaBound(selected tasks).
// With fromBottom=false, theta ranges over top levels and selects tasks
// with top >= theta (they run in [theta, C]). With fromBottom=true,
// levels are bottom levels including the task's own weight: tasks with
// bottom_min(v) >= beta cannot *finish* later than C - (beta - w_min(v)),
// equivalently on the time-reversed schedule they start at or after
// beta - w_min(v); the reversed-DAG top level of v is exactly
// bottom_min(v) - w_min(v), so we reuse the same selection on those
// values.
func sweep(g *dag.Graph, pl platform.Platform, levels []float64, fromBottom bool) (float64, error) {
	tasks := g.Tasks()
	starts := make([]float64, g.Len())
	for id := range starts {
		if fromBottom {
			starts[id] = levels[id] - min(tasks[id].CPUTime, tasks[id].GPUTime)
		} else {
			starts[id] = levels[id]
		}
	}
	// Candidate thetas: distinct start values.
	thetas := append([]float64(nil), starts...)
	sort.Float64s(thetas)
	best := 0.0
	prev := math.NaN()
	// Order tasks by start descending so each theta's selection is a
	// suffix.
	idx := make([]int, g.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return starts[idx[a]] > starts[idx[b]] })
	var selected platform.Instance
	pos := 0
	// Iterate thetas from largest to smallest, growing the selection.
	for i := len(thetas) - 1; i >= 0; i-- {
		theta := thetas[i]
		//hplint:allow floateq dedup of candidate thetas copied from the same sorted slice; equal bits mean the same candidate
		if theta == prev {
			continue
		}
		prev = theta
		for pos < len(idx) && starts[idx[pos]] >= theta {
			selected = append(selected, g.Task(idx[pos]))
			pos++
		}
		ab, err := AreaBound(selected, pl)
		if err != nil {
			return 0, err
		}
		best = math.Max(best, theta+ab)
	}
	return best, nil
}
