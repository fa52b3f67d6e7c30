package sched

import (
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// The greedy baselines below fill out the comparison space around
// HeteroPrio: MCT is the classic "earliest completion time" rule most
// runtime systems default to (and the historical scheduler the paper's
// Section 2.1 describes), and LPTPerClass is the affinity-blind
// longest-processing-time heuristic. Both are list schedulers without
// spoliation, so neither has a bounded approximation ratio on unrelated
// resources (Section 3) — tests exhibit the gap.

// MCTIndependent schedules independent tasks with the Minimum Completion
// Time rule: tasks are taken in priority order (highest first, then input
// order) and placed on the worker that completes them earliest.
func MCTIndependent(in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order := in.Clone()
	sort.SliceStable(order, func(i, j int) bool { return order[i].Priority > order[j].Priority })
	loads := make([]float64, pl.Workers())
	s := &sim.Schedule{Platform: pl}
	for _, t := range order {
		best, bestEnd := -1, math.Inf(1)
		for w := 0; w < pl.Workers(); w++ {
			if end := loads[w] + t.Time(pl.KindOf(w)); end < bestEnd {
				best, bestEnd = w, end
			}
		}
		k := pl.KindOf(best)
		s.Entries = append(s.Entries, sim.Entry{
			TaskID: t.ID, Worker: best, Kind: k,
			Start: loads[best], End: bestEnd,
		})
		loads[best] = bestEnd
	}
	return s, nil
}

// MCTDAG schedules a task graph online with the MCT rule: whenever a
// worker would idle, the ready task with the highest priority is placed
// on the worker completing it earliest among the currently idle ones.
func MCTDAG(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
	return MCTDAGTimed(g, pl, nil)
}

// MCTDAGTimed is MCTDAG with an explicit duration model (nil means
// nominal): decisions use nominal times, runs take actual durations.
func MCTDAGTimed(g *dag.Graph, pl platform.Platform, actual func(t platform.Task, k platform.Kind) float64) (*sim.Schedule, error) {
	if actual == nil {
		actual = nominal
	}
	var ready []platform.Task
	release := func(t platform.Task) { ready = append(ready, t) }
	assign := func(k *sim.Kernel) error {
		for len(ready) > 0 {
			// Highest-priority ready task first.
			best := 0
			for i := 1; i < len(ready); i++ {
				if ready[i].Priority > ready[best].Priority {
					best = i
				}
			}
			t := ready[best]
			// Idle worker with the earliest completion for t: every
			// idle worker of a class ends t at the same time, so only
			// each class's first idle worker competes, CPUs first so
			// that ties go to the CPU.
			bw, bend := -1, math.Inf(1)
			for _, kind := range [...]platform.Kind{platform.CPU, platform.GPU} {
				if w := k.NextIdle(kind, 0); w >= 0 {
					if end := k.Now + t.Time(kind); end < bend {
						bw, bend = w, end
					}
				}
			}
			if bw < 0 {
				break
			}
			ready = append(ready[:best], ready[best+1:]...)
			k.StartTimed(bw, t, actual(t, pl.KindOf(bw)), false)
		}
		return nil
	}
	return runList(pl, sim.Releases{Graph: g}, release, assign)
}

// LPTPerClass schedules independent tasks with the affinity-blind
// longest-processing-time rule: tasks sorted by decreasing min duration,
// each placed on the worker finishing it earliest (ties to CPUs). It is a
// strawman showing what ignoring acceleration factors costs.
func LPTPerClass(in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
	sorted := in.Clone()
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].MinTime() > sorted[j].MinTime() })
	for i := range sorted {
		sorted[i].Priority = 0
	}
	return MCTIndependent(sorted, pl)
}
