package sched

import (
	"math"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// ER-LS is the Enhanced Rules list scheduler of Amaris, Lucarelli,
// Mommessin and Trystram ("Generic algorithms for scheduling applications
// on hybrid multi-core machines", arXiv 1711.06433): each task is
// allocated to the CPU class when p_j/sqrt(m) <= q_j/sqrt(n) and to the
// GPU class otherwise, then a greedy list schedule runs each class. The
// sqrt rule balances the two terms of the per-class load bound, giving a
// proven competitive ratio of 3+2*sqrt(2) (~5.83) that holds online and
// for DAGs — independent instances are the edge-free special case.

// ERLSKind returns the class the ER-LS allocation rule gives t on pl:
// CPU when p/sqrt(m) <= q/sqrt(n), GPU otherwise. Degenerate platforms
// fall back to the only populated class.
func ERLSKind(t platform.Task, pl platform.Platform) platform.Kind {
	switch {
	case pl.GPUs == 0:
		return platform.CPU
	case pl.CPUs == 0:
		return platform.GPU
	}
	if t.CPUTime/math.Sqrt(float64(pl.CPUs)) <= t.GPUTime/math.Sqrt(float64(pl.GPUs)) {
		return platform.CPU
	}
	return platform.GPU
}

// ERLSIndependent schedules an independent instance with ER-LS: tasks are
// taken in priority order (highest first, input order on ties), allocated
// by the sqrt rule, and placed on the least-loaded worker of their class.
func ERLSIndependent(in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cp := newClassPlacer(pl, len(in))
	for _, t := range sortedByPriorityDesc(in) {
		cp.place(t, ERLSKind(t, pl))
	}
	return cp.schedule(), nil
}

// ERLSDAG schedules a task graph online with ER-LS: tasks are allocated to
// their class the moment they become ready, and each class runs a priority
// list schedule (assign priorities first, e.g. with
// AssignBottomLevelPriorities; zero priorities degrade to ready order).
func ERLSDAG(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
	var queues [platform.NumKinds]classQueue
	seq := 0
	release := func(t platform.Task) {
		queues[ERLSKind(t, pl)].add(t, seq)
		seq++
	}
	pick := func(_ int, kind platform.Kind) (platform.Task, bool) {
		return queues[kind].pop()
	}
	return runList(pl, sim.Releases{Graph: g}, release, pickRound(pick, nominal))
}

// ERLSDAGWithPriorities assigns bottom-level priorities under the given
// weighting and runs ERLSDAG.
func ERLSDAGWithPriorities(g *dag.Graph, pl platform.Platform, w dag.Weighting) (*sim.Schedule, error) {
	if _, err := g.AssignBottomLevelPriorities(w, pl); err != nil {
		return nil, err
	}
	return ERLSDAG(g, pl)
}
