package sched

import (
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Affinity reconstructs the XKaapi dual-ended heuristic of Bleuse,
// Gautier, Lima, Mounié and Trystram ("Scheduling Data Flow Program in
// XKaapi", arXiv 1402.6601): ready tasks sit in one deque sorted by
// acceleration factor, GPU workers take work from the most-accelerated
// end and CPU workers from the least-accelerated end, and each worker
// scans a small window at its end preferring a task with the same kernel
// name as the one it just ran (the affinity stands in for XKaapi's
// locality-aware cache of valid data copies). There is no spoliation;
// TestZooWorstCases pins what that costs on the paper's Theorem 8
// instance. Like PriorityAware this is a reconstruction in spirit, with a
// pinned empirical contract in the ratio suite.

// affinityWindow is how deep into its end of the deque a worker looks for
// a kernel-name match before settling for the endmost task.
const affinityWindow = 4

// affinityTake removes and returns the task worker w should run from its
// class's end of the deque, honoring the affinity window.
func affinityTake(dq *accelDeque, kind platform.Kind, lastName string) platform.Task {
	limit := affinityWindow
	if dq.len() < limit {
		limit = dq.len()
	}
	if lastName != "" {
		for off := 0; off < limit; off++ {
			i := off
			if kind == platform.CPU {
				i = dq.len() - 1 - off
			}
			if dq.tasks[i].Name == lastName {
				t := dq.tasks[i]
				dq.tasks = append(dq.tasks[:i], dq.tasks[i+1:]...)
				return t
			}
		}
	}
	if kind == platform.GPU {
		return dq.popFront()
	}
	return dq.popBack()
}

// AffinityIndependent schedules an independent instance with the affinity
// heuristic, simulating the workers' race for the deque: whenever a worker
// idles it takes its next task per affinityTake, so which worker gets
// which task depends on completion order exactly as in the runtime.
func AffinityIndependent(in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	sorted := in.ByAccelDesc()
	var dq accelDeque
	release := func(t platform.Task) { dq.tasks = append(dq.tasks, t) }
	return runList(pl, sim.Releases{Tasks: sorted}, release, pickRound(affinityPick(&dq, pl), nominal))
}

// AffinityDAG schedules a task graph with the online affinity heuristic:
// the deque holds the ready tasks, refilled as predecessors complete.
func AffinityDAG(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	var dq accelDeque
	return runList(pl, sim.Releases{Graph: g}, dq.insert, pickRound(affinityPick(&dq, pl), nominal))
}

// affinityPick is Affinity's queue discipline on dq: each worker takes its
// next task per affinityTake, remembering the kernel name it last ran.
func affinityPick(dq *accelDeque, pl platform.Platform) picker {
	last := make([]string, pl.Workers())
	return func(w int, kind platform.Kind) (platform.Task, bool) {
		if dq.empty() {
			return platform.Task{}, false
		}
		t := affinityTake(dq, kind, last[w])
		last[w] = t.Name
		return t, true
	}
}
