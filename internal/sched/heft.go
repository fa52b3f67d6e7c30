// Package sched implements the baseline schedulers the paper compares
// HeteroPrio against (Section 6): the classic HEFT algorithm with avg and
// min ranking schemes, the DualHP dual-approximation algorithm of Bleuse et
// al. [15] in both its independent-task and DAG-adapted forms, a Graham
// list scheduler on one homogeneous resource class (the Lemma 6 / Figure 4
// scaffolding), and an exact branch-and-bound solver for small independent
// instances used to verify approximation ratios in tests.
package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// workerTimeline tracks the occupied intervals of one worker for
// insertion-based scheduling.
type workerTimeline struct {
	// entries sorted by start time; non-overlapping.
	busy []struct{ start, end float64 }
}

// earliestSlot returns the earliest start >= est of a gap of length d.
func (w *workerTimeline) earliestSlot(est, d float64) float64 {
	cur := est
	for _, iv := range w.busy {
		if iv.start-cur >= d-1e-12 {
			return cur
		}
		if iv.end > cur {
			cur = iv.end
		}
	}
	return cur
}

// insert reserves [start, start+d).
func (w *workerTimeline) insert(start, d float64) {
	iv := struct{ start, end float64 }{start, start + d}
	i := sort.Search(len(w.busy), func(i int) bool { return w.busy[i].start >= iv.start })
	w.busy = append(w.busy, struct{ start, end float64 }{})
	copy(w.busy[i+1:], w.busy[i:])
	w.busy[i] = iv
}

// HEFT schedules the task graph with the Heterogeneous Earliest Finish
// Time algorithm: tasks are ordered by decreasing upward rank (bottom
// level) computed with the given weighting scheme, and each task is placed
// on the worker minimizing its earliest finish time, with insertion into
// idle gaps. Communication costs are zero (single shared-memory node).
func HEFT(g *dag.Graph, pl platform.Platform, w dag.Weighting) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ranks, err := g.BottomLevels(w, pl)
	if err != nil {
		return nil, err
	}
	order := make([]int, g.Len())
	for i := range order {
		order[i] = i
	}
	// Decreasing rank; ties by smaller ID for determinism. Positive node
	// weights make ranks strictly decrease along edges, so this order is a
	// valid topological order.
	sort.SliceStable(order, func(i, j int) bool {
		ri, rj := ranks[order[i]], ranks[order[j]]
		if ri != rj {
			return ri > rj
		}
		return order[i] < order[j]
	})

	timelines := make([]workerTimeline, pl.Workers())
	finish := make([]float64, g.Len())
	s := &sim.Schedule{Platform: pl}
	for _, id := range order {
		t := g.Task(id)
		var ready float64
		for _, p := range g.Preds(id) {
			ready = max(ready, finish[p])
		}
		bestW, bestStart, bestEFT := -1, 0.0, math.Inf(1)
		for wk := 0; wk < pl.Workers(); wk++ {
			d := t.Time(pl.KindOf(wk))
			start := timelines[wk].earliestSlot(ready, d)
			if eft := start + d; eft < bestEFT-1e-12 {
				bestW, bestStart, bestEFT = wk, start, eft
			}
		}
		d := t.Time(pl.KindOf(bestW))
		timelines[bestW].insert(bestStart, d)
		finish[id] = bestStart + d
		s.Entries = append(s.Entries, sim.Entry{
			TaskID: id,
			Worker: bestW,
			Kind:   pl.KindOf(bestW),
			Start:  bestStart,
			End:    bestStart + d,
		})
	}
	return s, nil
}

// HEFTIndependent schedules an independent instance with HEFT (the graph
// with no edges). The rank of a task is then just its node weight.
func HEFTIndependent(in platform.Instance, pl platform.Platform, w dag.Weighting) (*sim.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	g := dag.FromInstance(in)
	s, err := HEFT(g, pl, w)
	if err != nil {
		return nil, err
	}
	// Map graph IDs (0..len-1 in slice order) back to the caller's task IDs.
	for i := range s.Entries {
		s.Entries[i].TaskID = in[s.Entries[i].TaskID].ID
	}
	return s, nil
}

// ListHomogeneous performs Graham list scheduling of the given durations,
// in slice order, on n identical machines. It returns the makespan and the
// per-task (machine, start) assignment. It is the scaffolding behind
// Lemma 6 and the Figure 4 good/bad orders of the Theorem 14 instance.
func ListHomogeneous(durations []float64, n int) (float64, []struct {
	Machine int
	Start   float64
}) {
	if n <= 0 {
		panic(fmt.Sprintf("sched: ListHomogeneous with %d machines", n))
	}
	loads := make([]float64, n)
	placement := make([]struct {
		Machine int
		Start   float64
	}, len(durations))
	for i, d := range durations {
		best := 0
		for m := 1; m < n; m++ {
			if loads[m] < loads[best]-1e-15 {
				best = m
			}
		}
		placement[i] = struct {
			Machine int
			Start   float64
		}{best, loads[best]}
		loads[best] += d
	}
	var ms float64
	for _, l := range loads {
		ms = math.Max(ms, l)
	}
	return ms, placement
}
