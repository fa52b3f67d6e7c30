package sched

// Shared plumbing for the competitor zoo (DESIGN.md §15): the related-work
// schedulers (ER-LS, HLP, CLB2C, PriorityAware, Affinity) all decompose
// into "pick a class for the next task, put it on the least-loaded worker
// of that class" (independent instances) or "hand each idle worker the
// next task its class's queue offers" (DAG instances). The helpers below
// factor those two skeletons out so each algorithm file only contains its
// allocation rule and queue discipline, and all of them inherit the same
// deterministic tie-breaking (worker index via loadHeap, task arrival
// sequence via classQueue).

import (
	"repro/internal/platform"
	"repro/internal/sim"
)

// classPlacer builds an independent-task schedule by placing each task on
// the least-loaded worker of a chosen class (ties to the smallest worker
// index). It is the offline counterpart of the online event loop: with
// independent tasks, "least-loaded worker" is exactly the worker that
// would idle first.
type classPlacer struct {
	pl    platform.Platform
	heaps [platform.NumKinds]loadHeap
	s     *sim.Schedule
}

// newClassPlacer returns a placer with room for n entries.
func newClassPlacer(pl platform.Platform, n int) *classPlacer {
	cp := &classPlacer{pl: pl, s: &sim.Schedule{Platform: pl, Entries: make([]sim.Entry, 0, n)}}
	for w := 0; w < pl.Workers(); w++ {
		cp.heaps[pl.KindOf(w)].push(loadEntry{worker: w})
	}
	return cp
}

// has reports whether the platform has any worker of class k.
func (cp *classPlacer) has(k platform.Kind) bool { return cp.heaps[k].len() > 0 }

// end returns the completion time t would have if placed now on class k,
// which must be non-empty.
func (cp *classPlacer) end(t platform.Task, k platform.Kind) float64 {
	return cp.heaps[k].min().load + t.Time(k)
}

// place puts t on the least-loaded worker of class k. If the platform has
// no worker of class k, the task falls back to the other class (callers
// that care about failover semantics check has() first).
func (cp *classPlacer) place(t platform.Task, k platform.Kind) {
	if !cp.has(k) {
		k = k.Other()
	}
	h := &cp.heaps[k]
	e := h.min()
	d := t.Time(k)
	cp.s.Entries = append(cp.s.Entries, sim.Entry{
		TaskID: t.ID, Worker: e.worker, Kind: k,
		Start: e.load, End: e.load + d,
	})
	h.increaseMin(d)
}

// schedule returns the accumulated schedule.
func (cp *classPlacer) schedule() *sim.Schedule { return cp.s }

// zooTaskEntry is one pending task in a classQueue, tagged with its
// arrival sequence number for deterministic tie-breaking.
type zooTaskEntry struct {
	t   platform.Task
	seq int
}

// classQueue is a pending pool picking tasks by decreasing priority, with
// arrival order breaking ties — the queue discipline shared by the zoo's
// priority-list DAG schedulers.
type classQueue struct {
	pending []zooTaskEntry
}

func (q *classQueue) add(t platform.Task, seq int) {
	q.pending = append(q.pending, zooTaskEntry{t, seq})
}

func (q *classQueue) empty() bool { return len(q.pending) == 0 }

// pop removes and returns the highest-priority pending task (earliest
// arrival on ties); ok is false when the queue is empty.
func (q *classQueue) pop() (platform.Task, bool) {
	best := -1
	for i, p := range q.pending {
		if best < 0 {
			best = i
			continue
		}
		b := q.pending[best]
		if p.t.Priority > b.t.Priority ||
			//hplint:allow floateq priorities are copied inputs; == only routes equal-priority pairs to the stable seq tie-break
			(p.t.Priority == b.t.Priority && p.seq < b.seq) {
			best = i
		}
	}
	if best < 0 {
		return platform.Task{}, false
	}
	t := q.pending[best].t
	q.pending = append(q.pending[:best], q.pending[best+1:]...)
	return t, true
}

// nominal is the duration model of the noise-free schedulers: every run
// takes its task's processing time on the worker's class.
func nominal(t platform.Task, k platform.Kind) float64 { return t.Time(k) }

// picker hands idle worker w of class kind its next task; ok is false
// when nothing is available for that class.
type picker func(w int, kind platform.Kind) (t platform.Task, ok bool)

// pickRound is the zoo's shared decision round: every idle worker, GPUs
// first, starts the task pick offers its class, and a class stops at its
// first refusal. Runs take their actual durations.
func pickRound(pick picker, actual func(platform.Task, platform.Kind) float64) func(k *sim.Kernel) error {
	return func(k *sim.Kernel) error {
		for _, kind := range [...]platform.Kind{platform.GPU, platform.CPU} {
			for w := k.NextIdle(kind, 0); w >= 0; w = k.NextIdle(kind, w+1) {
				t, ok := pick(w, kind)
				if !ok {
					break
				}
				k.StartTimed(w, t, actual(t, kind), false)
			}
		}
		return nil
	}
}

// runList validates pl and src and drives sim.Run on a fresh kernel:
// release queues each task as it becomes schedulable, and assign is one
// decision round on the kernel. Unlike HeteroPrio, these policies do not
// batch an instant's completions: a round follows each completion, in the
// kernel's (end, worker) order.
func runList(pl platform.Platform, src sim.Releases, release func(platform.Task), assign func(k *sim.Kernel) error) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	var err error
	if src.Graph != nil {
		err = src.Graph.Validate()
	} else {
		err = src.Tasks.Validate()
	}
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel(pl)
	if err := sim.Run(k, src, sim.Policy{Release: release, Assign: func() error { return assign(k) }}); err != nil {
		return nil, err
	}
	return k.Schedule(), nil
}
