package sched

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// ReplayAssignment executes a fixed task-to-worker assignment online with
// an explicit duration model: whenever a worker is free, it starts the
// highest-rank ready task assigned to it. This turns an offline plan
// (e.g. HEFT's) into an executable policy under estimation noise — the
// worker choices are kept, the start times adapt to the actual durations.
func ReplayAssignment(g *dag.Graph, pl platform.Platform, assign []int, rank []float64,
	actual func(t platform.Task, k platform.Kind) float64) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if len(assign) != g.Len() || len(rank) != g.Len() {
		return nil, fmt.Errorf("sched: assignment/rank size %d/%d, want %d", len(assign), len(rank), g.Len())
	}
	for id, w := range assign {
		if w < 0 || w >= pl.Workers() {
			return nil, fmt.Errorf("sched: task %d assigned to invalid worker %d", id, w)
		}
	}
	if actual == nil {
		actual = nominal
	}
	// readyOn[w] holds the ready-unstarted tasks assigned to worker w.
	readyOn := make([][]platform.Task, pl.Workers())
	release := func(t platform.Task) {
		w := assign[t.ID]
		readyOn[w] = append(readyOn[w], t)
	}
	// round visits the idle workers in index order: CPUs, then GPUs.
	round := func(k *sim.Kernel) error {
		for _, kind := range [...]platform.Kind{platform.CPU, platform.GPU} {
			for w := k.NextIdle(kind, 0); w >= 0; w = k.NextIdle(kind, w+1) {
				if len(readyOn[w]) == 0 {
					continue
				}
				best := 0
				for i := 1; i < len(readyOn[w]); i++ {
					if rank[readyOn[w][i].ID] > rank[readyOn[w][best].ID] {
						best = i
					}
				}
				t := readyOn[w][best]
				readyOn[w] = append(readyOn[w][:best], readyOn[w][best+1:]...)
				k.StartTimed(w, t, actual(t, kind), false)
			}
		}
		return nil
	}
	return runList(pl, sim.Releases{Graph: g}, release, round)
}

// HEFTTimed plans with HEFT on the nominal processing times and replays
// the resulting task-to-worker assignment with the actual durations.
// With actual == nil it is equivalent in assignment (though not always in
// intra-worker order) to HEFT itself.
func HEFTTimed(g *dag.Graph, pl platform.Platform, w dag.Weighting,
	actual func(t platform.Task, k platform.Kind) float64) (*sim.Schedule, error) {
	plan, err := HEFT(g, pl, w)
	if err != nil {
		return nil, err
	}
	assign := make([]int, g.Len())
	for _, e := range plan.Entries {
		assign[e.TaskID] = e.Worker
	}
	rank, err := g.BottomLevels(w, pl)
	if err != nil {
		return nil, err
	}
	return ReplayAssignment(g, pl, assign, rank, actual)
}
