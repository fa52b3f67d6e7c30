package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Ranking selects the order in which DualHP processes the tasks assigned to
// a resource class (Section 6.2).
type Ranking int

const (
	// RankFIFO keeps the order in which tasks became ready (or input order
	// for independent instances).
	RankFIFO Ranking = iota
	// RankAvg orders by decreasing priority, where priorities are expected
	// to be bottom levels under the avg weighting.
	RankAvg
	// RankMin orders by decreasing priority computed with min weighting.
	RankMin
)

// String implements fmt.Stringer.
func (r Ranking) String() string {
	switch r {
	case RankFIFO:
		return "fifo"
	case RankAvg:
		return "avg"
	case RankMin:
		return "min"
	default:
		return fmt.Sprintf("Ranking(%d)", int(r))
	}
}

// dualAssign implements the core of DualHP for one guess lambda: given
// per-worker initial loads and the tasks sorted by non-increasing
// acceleration factor, it either fills out[i] with a worker for sorted[i]
// such that no worker's total load exceeds 2*lambda, or reports failure
// (meaning lambda < C_max^Opt, up to the heuristic's guarantee). heaps
// are the per-class load heaps, emptied and refilled from initLoad on
// every call; the caller owns them so its probes reuse their arrays.
//
// Following the paper's description: any task with processing time more
// than lambda on one resource class is assigned to the other class; then
// remaining tasks are assigned to the GPUs by decreasing acceleration
// factor while they fit under 2*lambda, and the rest goes to the CPUs.
func dualAssign(sorted platform.Instance, pl platform.Platform, initLoad []float64, lambda float64, out []int, heaps *[platform.NumKinds]loadHeap) bool {
	for k := range heaps {
		heaps[k].xs = heaps[k].xs[:0]
	}
	for w := 0; w < pl.Workers(); w++ {
		heaps[pl.KindOf(w)].push(loadEntry{load: initLoad[w], worker: w})
	}
	place := func(t platform.Task, k platform.Kind) (int, bool) {
		h := &heaps[k]
		if h.len() == 0 {
			return -1, false
		}
		e := h.min()
		if e.load+t.Time(k) > 2*lambda+1e-9 {
			return -1, false
		}
		h.increaseMin(t.Time(k))
		return e.worker, true
	}

	// Forced pass: tasks too long for one class go to the other.
	for i, t := range sorted {
		out[i] = -1
		pBig := t.CPUTime > lambda+1e-12
		qBig := t.GPUTime > lambda+1e-12
		switch {
		case pBig && qBig:
			return false
		case pBig:
			w, ok := place(t, platform.GPU)
			if !ok {
				return false
			}
			out[i] = w
		case qBig:
			w, ok := place(t, platform.CPU)
			if !ok {
				return false
			}
			out[i] = w
		}
	}
	// Remaining pass: GPUs by decreasing acceleration factor while they
	// fit, then CPUs.
	gpuOpen := pl.GPUs > 0
	for i, t := range sorted {
		if out[i] >= 0 {
			continue
		}
		if gpuOpen {
			if w, ok := place(t, platform.GPU); ok {
				out[i] = w
				continue
			}
			gpuOpen = false
		}
		w, ok := place(t, platform.CPU)
		if !ok {
			return false
		}
		out[i] = w
	}
	return true
}

// dualSearch binary-searches the smallest feasible lambda. It returns the
// tasks sorted by non-increasing acceleration factor and, aligned with
// them, the per-task worker assignment of the best feasible lambda.
func dualSearch(tasks platform.Instance, pl platform.Platform, initLoad []float64) (platform.Instance, []int, error) {
	sorted := tasks.ByAccelDesc()
	best := make([]int, len(sorted))
	out := make([]int, len(sorted))
	// One array holds both classes' heaps: workers are numbered CPUs
	// first, so each heap gets exactly its class's room.
	var heaps [platform.NumKinds]loadHeap
	entries := make([]loadEntry, pl.Workers())
	heaps[platform.CPU].xs = entries[:0:pl.CPUs]
	heaps[platform.GPU].xs = entries[pl.CPUs:pl.CPUs]
	hi := dualUpperBound(sorted, pl, initLoad)
	lo := 0.0
	if !dualAssign(sorted, pl, initLoad, hi, best, &heaps) {
		return nil, nil, fmt.Errorf("sched: DualHP upper bound %v infeasible", hi)
	}
	for i := 0; i < 60 && hi-lo > 1e-6*hi; i++ {
		mid := (lo + hi) / 2
		if dualAssign(sorted, pl, initLoad, mid, out, &heaps) {
			copy(best, out)
			hi = mid
		} else {
			lo = mid
		}
	}
	return sorted, best, nil
}

// dualUpperBound returns a lambda that is certainly feasible: the largest
// initial load plus the total work if every task ran on its best class on a
// single worker.
func dualUpperBound(tasks platform.Instance, pl platform.Platform, initLoad []float64) float64 {
	hi := 1.0
	for _, l := range initLoad {
		hi = math.Max(hi, l)
	}
	for _, t := range tasks {
		if pl.GPUs == 0 {
			hi += t.CPUTime
		} else if pl.CPUs == 0 {
			hi += t.GPUTime
		} else {
			hi += t.MinTime()
		}
	}
	return hi
}

// DualHPIndependent schedules an independent instance with the DualHP
// dual-approximation algorithm: binary search for the smallest lambda whose
// dual assignment fits in 2*lambda, then execute each worker's tasks back
// to back.
func DualHPIndependent(in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sorted, assign, err := dualSearch(in, pl, make([]float64, pl.Workers()))
	if err != nil {
		return nil, err
	}
	s := &sim.Schedule{Platform: pl, Entries: make([]sim.Entry, 0, len(sorted))}
	loads := make([]float64, pl.Workers())
	for i, t := range sorted {
		w := assign[i]
		k := pl.KindOf(w)
		d := t.Time(k)
		s.Entries = append(s.Entries, sim.Entry{
			TaskID: t.ID, Worker: w, Kind: k,
			Start: loads[w], End: loads[w] + d,
		})
		loads[w] += d
	}
	return s, nil
}

// DualHPDAG schedules a task graph with the DAG adaptation of DualHP
// described in Section 6.2: each time a task becomes ready, the assignment
// of all ready-but-unstarted tasks is recomputed with the dual
// approximation, taking the remaining load of currently executing tasks
// into account; within a class, tasks are started in ranking order
// (fifo, or decreasing priority for avg/min — priorities must already be
// assigned to the graph, e.g. with AssignBottomLevelPriorities).
func DualHPDAG(g *dag.Graph, pl platform.Platform, rank Ranking) (*sim.Schedule, error) {
	return DualHPDAGTimed(g, pl, rank, nil)
}

// DualHPDAGTimed is DualHPDAG with an explicit duration model: actual, if
// non-nil, gives the true execution time of each run while all scheduling
// decisions (dual assignments, load estimates) keep using the nominal
// processing times — the estimation-noise setting.
func DualHPDAGTimed(g *dag.Graph, pl platform.Platform, rank Ranking, actual func(t platform.Task, k platform.Kind) float64) (*sim.Schedule, error) {
	if actual == nil {
		actual = nominal
	}
	// pending holds ready-but-unstarted tasks with their arrival order;
	// stale marks tasks released since the last dual assignment.
	type pendingTask struct {
		t   platform.Task
		seq int
	}
	var pending []pendingTask
	seq := 0
	stale := false
	// classOf maps task ID to its currently assigned class.
	classOf := make(map[int]platform.Kind, g.Len())

	release := func(t platform.Task) {
		pending = append(pending, pendingTask{t, seq})
		seq++
		stale = true
	}

	var initLoad []float64
	recompute := func(k *sim.Kernel) error {
		if initLoad == nil {
			initLoad = make([]float64, pl.Workers())
		}
		for w := range initLoad {
			initLoad[w] = 0
			if k.Busy(w) {
				// The scheduler only knows the estimated remaining time.
				if rem := k.RunOf(w).EstEnd - k.Now; rem > 0 {
					initLoad[w] = rem
				}
			}
		}
		tasks := make(platform.Instance, len(pending))
		for i, p := range pending {
			tasks[i] = p.t
		}
		sorted, assign, err := dualSearch(tasks, pl, initLoad)
		if err != nil {
			return err
		}
		for i := range sorted {
			classOf[sorted[i].ID] = pl.KindOf(assign[i])
		}
		return nil
	}

	// pick removes and returns the next pending task assigned to class
	// kind, honoring the ranking order. ok is false if none is pending.
	pick := func(_ int, kind platform.Kind) (platform.Task, bool) {
		best := -1
		for i, p := range pending {
			if classOf[p.t.ID] != kind {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			b := pending[best]
			switch rank {
			case RankFIFO:
				if p.seq < b.seq {
					best = i
				}
			default:
				if p.t.Priority > b.t.Priority ||
					//hplint:allow floateq priorities are copied inputs; == only routes equal-priority pairs to the stable seq tie-break
					(p.t.Priority == b.t.Priority && p.seq < b.seq) {
					best = i
				}
			}
		}
		if best < 0 {
			return platform.Task{}, false
		}
		t := pending[best].t
		pending = append(pending[:best], pending[best+1:]...)
		return t, true
	}

	// Each round first recomputes the assignment of every pending task if
	// tasks were released since the last one.
	round := pickRound(pick, actual)
	assign := func(k *sim.Kernel) error {
		if stale {
			stale = false
			if err := recompute(k); err != nil {
				return err
			}
		}
		return round(k)
	}
	return runList(pl, sim.Releases{Graph: g}, release, assign)
}

// DualHPDAGWithPriorities assigns bottom-level priorities for the ranking
// scheme (avg or min weighting; fifo skips priorities) and runs DualHPDAG.
func DualHPDAGWithPriorities(g *dag.Graph, pl platform.Platform, rank Ranking) (*sim.Schedule, error) {
	switch rank {
	case RankAvg:
		if _, err := g.AssignBottomLevelPriorities(dag.WeightAvg, pl); err != nil {
			return nil, err
		}
	case RankMin:
		if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
			return nil, err
		}
	}
	return DualHPDAG(g, pl, rank)
}

// sortedByPriorityDesc returns a clone of in in decreasing priority order,
// ties in input order: the dispatch order of ERLS and PriorityAware. It
// sorts a clone because scheduler inputs are read-only
// (TestEntryPointsLeaveInputsUntouched in internal/expr).
func sortedByPriorityDesc(in platform.Instance) platform.Instance {
	order := in.Clone()
	sort.SliceStable(order, func(i, j int) bool { return order[i].Priority > order[j].Priority })
	return order
}
