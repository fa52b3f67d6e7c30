package sim

import (
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Arrival is a task with a release date: in the online setting the
// scheduler learns of a task only at its release.
type Arrival struct {
	Task    platform.Task
	Release float64
}

// Releases says when tasks become schedulable. Set one field: every task
// of Tasks is released at time 0, in slice order (a stable queue then
// reproduces the paper's tie cases), each task of Graph when its last
// predecessor completes, and each of Arrivals (sorted by Release) at its
// release date.
type Releases struct {
	Tasks    platform.Instance
	Graph    *dag.Graph
	Arrivals []Arrival
}

// releaseSlack admits an arrival whose date lies within rounding of the
// current instant.
const releaseSlack = 1e-12

// Policy is a list scheduler as Run drives it. Release queues a task the
// moment it becomes schedulable; Assign is one decision round at the
// current instant, starting (and, for spoliating policies, aborting) runs
// on the kernel, and is called only while tasks remain; Complete, if
// non-nil, retires one finished run before its successors are released. Batch says when a round happens: a batch
// policy sees every completion of an instant before it decides, so all
// the workers freed at that instant share one round; otherwise a round
// follows each completion, in the kernel's (end, worker) order.
type Policy struct {
	Release  func(t platform.Task)
	Assign   func() error
	Complete func(r Running)
	Batch    bool
}

// Run is the event loop every list scheduler shares: it owns virtual time
// on k, releases the tasks of src to p, lets p fill idle workers, advances
// to the next completion or arrival and retires the runs that end there,
// until every task has completed. It returns Assign's first error, or an
// error if tasks remain when no run will complete and no task will arrive.
func Run(k *Kernel, src Releases, p Policy) error {
	l := loop{k: k, g: src.Graph, arrivals: src.Arrivals, remaining: len(src.Tasks) + len(src.Arrivals)}
	if l.g != nil {
		l.rt = dag.NewReadyTracker(l.g)
		l.remaining = l.g.Len()
		l.releaseReady(&p)
	}
	// Size the entries once: one per task, plus one per spoliated
	// restart. A worker count covers the few restarts of an independent
	// instance's tail. A graph restarts 7-18% of its tasks on the paper's
	// 20+4 at N=16 and up to 58% on wider platforms; past the eighth of
	// the tasks added here, the entries grow once.
	k.sched.Entries = slices.Grow(k.sched.Entries, l.remaining+k.P.Workers()+l.remaining/8)
	for _, t := range src.Tasks {
		p.Release(t)
	}
	if err := l.run(&p); err != nil {
		return err
	}
	if l.remaining > 0 {
		return fmt.Errorf("sim: run stalled with %d tasks remaining", l.remaining)
	}
	return nil
}

// loop is one Run: the release source's progress and the count of tasks
// not yet completed. The policy travels as a separate argument: escape
// analysis does not tell a struct's fields apart, and the tasks the loop
// hands to the hooks escape, so a policy stored beside them would move
// its hooks to the heap.
type loop struct {
	k        *Kernel
	g        *dag.Graph
	rt       *dag.ReadyTracker
	arrivals []Arrival
	next     int // first arrival not yet released

	remaining int
}

// run is the event loop proper: release due arrivals, decide, advance to
// the earlier of the next arrival and the next completion, retire. It
// allocates nothing; core's TestScheduleAllocsPerCall measures it with
// HeteroPrio's hooks.
func (l *loop) run(p *Policy) error {
	for l.remaining > 0 {
		for l.next < len(l.arrivals) && l.arrivals[l.next].Release <= l.k.Now+releaseSlack {
			p.Release(l.arrivals[l.next].Task)
			l.next++
		}
		if err := p.Assign(); err != nil {
			return err
		}
		if l.next < len(l.arrivals) && l.arrivals[l.next].Release < l.k.NextCompletion() {
			l.k.Now = l.arrivals[l.next].Release
			continue
		}
		run, ok := l.k.CompleteNext()
		if !ok {
			return nil
		}
		l.retire(p, run)
		//hplint:allow floateq completions at one instant carry the same stored float; the exact same-timestamp drain is intended
		for p.Batch && l.k.NextCompletion() == l.k.Now {
			run, _ = l.k.CompleteNext()
			l.retire(p, run)
		}
	}
	return nil
}

// retire hands one finished run to the policy and releases the tasks it
// made ready.
func (l *loop) retire(p *Policy, run Running) {
	l.remaining--
	if p.Complete != nil {
		p.Complete(run)
	}
	if l.rt != nil {
		l.rt.Complete(run.Task.ID)
		l.releaseReady(p)
	}
}

// releaseReady releases the graph tasks that became ready.
func (l *loop) releaseReady(p *Policy) {
	for _, id := range l.rt.DrainShared() {
		p.Release(l.g.Task(id))
	}
}
