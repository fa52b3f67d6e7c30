// Package obs is the observability layer of the repository: live event
// hooks emitted by the scheduling loops (package core), a dependency-free
// metrics registry with Prometheus text exposition, per-run summaries in
// the paper's vocabulary (makespan, per-class idle time, spoliation wasted
// work, equivalent acceleration), a live event timeline that bridges to
// the Perfetto trace exporter, and the structured run logger shared by the
// commands.
//
// The paper's entire analysis (Sections 4-6) is phrased in observable
// schedule quantities; this package makes them visible *while a run
// unfolds* instead of post hoc from a finished sim.Schedule. Runtime
// systems in the StarPU family ship the same kind of built-in counters
// because scheduler pathologies (spoliation storms, queue starvation) are
// invisible in end-state makespans.
package obs

import "repro/internal/platform"

// Observer receives scheduling events at each simulated-clock decision
// point of a run. Implementations must be cheap: the hooks fire inside the
// scheduler's hot loop. All emission sites in package core are guarded so
// that a nil Observer costs nothing — zero additional allocations and no
// dynamic calls (see BenchmarkScheduleIndependent at the repository root).
//
// Events arrive in simulated-time order within one run. State shared
// across concurrent runs must be safe for concurrent use; per-run state
// belongs in a per-run Observer (SchedulerMetrics.Run).
type Observer interface {
	// TaskQueued fires when a task enters the ready queue (initial fill,
	// dependency release, or online arrival). depth is the queue length
	// including the new task.
	TaskQueued(now float64, t platform.Task, depth int)
	// TaskStarted fires when a worker begins executing a task. estEnd is
	// the completion time the scheduler believes in (nominal processing
	// time); spoliation marks restarts caused by a spoliation.
	TaskStarted(now float64, worker int, kind platform.Kind, t platform.Task, estEnd float64, spoliation bool)
	// TaskSpoliated fires when an idle worker aborts a run on the other
	// resource class: the victim run on worker victim is killed and the
	// task restarts on worker thief. wasted is the simulated time the
	// victim had already spent (all of it lost).
	TaskSpoliated(now float64, victim, thief int, t platform.Task, wasted float64)
	// TaskCompleted fires when a run finishes successfully. start is the
	// run's start time, so now-start is the actual execution duration.
	TaskCompleted(now float64, worker int, kind platform.Kind, t platform.Task, start float64)
	// WorkerIdle fires for each worker left idle after a scheduling round
	// while unfinished tasks remain (the quantity the paper's idle-time
	// analysis bounds).
	WorkerIdle(now float64, worker int, kind platform.Kind)
	// QueueDepthSample fires once per scheduling round with the ready
	// queue depth after all assignments.
	QueueDepthSample(now float64, depth int)
}

// Nop is an Observer that does nothing. Storing it in an interface does
// not allocate (empty struct), so it is the reference point for the
// zero-overhead guarantee of the emission sites.
type Nop struct{}

func (Nop) TaskQueued(float64, platform.Task, int)                                {}
func (Nop) TaskStarted(float64, int, platform.Kind, platform.Task, float64, bool) {}
func (Nop) TaskSpoliated(float64, int, int, platform.Task, float64)               {}
func (Nop) TaskCompleted(float64, int, platform.Kind, platform.Task, float64)     {}
func (Nop) WorkerIdle(float64, int, platform.Kind)                                {}
func (Nop) QueueDepthSample(float64, int)                                         {}
