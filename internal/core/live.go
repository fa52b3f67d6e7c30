package core

import (
	"math"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Live is HeteroPrio on a task graph, driven by an executor that owns the
// clock: a runtime system that measures when its runs end, or a test
// replaying a simulation. It makes the same decisions as ScheduleDAG,
// through the same policy (queue, victim rule, observer events), but no
// run ends on its own: the kernel starts every run with an unbounded
// duration, and the executor reports each completion with Finish.
//
// The executor reads the policy's decisions off Kernel: a run started on
// a worker is a busy worker and a new schedule entry, and an aborted run
// is an entry marked Aborted, whose worker is idle again at once. Times
// are the executor's, in the unit of the task times.
type Live struct {
	s  listState
	rt *dag.ReadyTracker
}

// NewLive returns the policy for g on pl, with the tasks that have no
// predecessors queued at time 0. Options.ActualTime and
// Options.TransferDelay do not apply: a run lasts until Finish ends it.
func NewLive(g *dag.Graph, pl platform.Platform, opt Options) (*Live, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	opt.ActualTime = unbounded
	opt.TransferDelay = 0
	l := &Live{rt: dag.NewReadyTracker(g)}
	l.s.init(sim.Releases{Graph: g}, pl, opt)
	l.release()
	return l, nil
}

// unbounded is the duration of every live run.
func unbounded(platform.Task, platform.Kind) float64 { return math.Inf(1) }

// Kernel returns the kernel the policy decides on. The executor reads it;
// only Round and Finish change it.
func (l *Live) Kernel() *sim.Kernel { return l.s.k }

// Done reports whether every task has completed.
func (l *Live) Done() bool { return l.rt.Done() }

// Round sets the clock to now and makes one decision round: idle workers
// take tasks from the queue, GPUs first, and once it is empty spoliate
// while they can. It does nothing once every task has completed. now must
// not be earlier than the last call's. An executor that finishes every
// run ending at an instant before that instant's round makes
// ScheduleDAG's decisions (TestLiveMatchesScheduleDAG).
func (l *Live) Round(now float64) {
	l.s.k.Now = now
	if !l.Done() {
		_ = l.s.assign() // it never fails
	}
}

// Finish sets the clock to now and ends the run on worker w, which
// completed: the worker becomes idle and the task's successors that
// became ready join the queue. now must not be earlier than the last
// call's.
func (l *Live) Finish(now float64, w int) {
	l.s.k.Now = now
	run := l.s.k.Finish(w)
	l.s.complete(run)
	l.rt.Complete(run.Task.ID)
	l.release()
}

// release queues the tasks that became ready.
func (l *Live) release() {
	for _, id := range l.rt.DrainShared() {
		l.s.release(l.s.g.Task(id))
	}
}
