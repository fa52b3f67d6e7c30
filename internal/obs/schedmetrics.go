package obs

import "repro/internal/platform"

// Metric names of the scheduler catalog (see the Observability sections of
// README.md and DESIGN.md). Declared as constants so dashboards and tests
// reference one spelling.
const (
	MetricTasksQueued    = "hp_tasks_queued_total"
	MetricTasksCompleted = "hp_tasks_completed_total"
	MetricSpoliations    = "hp_spoliations_total"
	MetricWastedWork     = "hp_spoliation_wasted_ms_total"
	MetricQueueDepth     = "hp_queue_depth"
	MetricTaskDuration   = "hp_task_duration_ms"
	MetricQueueWait      = "hp_queue_wait_ms"
	MetricWorkerIdle     = "hp_worker_idle_events_total"
)

// SchedulerMetrics feeds a Registry with live counters, gauges and
// histograms for the quantities the paper's analysis is phrased in:
// completed tasks, spoliations and their wasted work, queue depth, task
// durations and queue-wait times. Times are in simulated milliseconds,
// the unit of every simulated run; a live run's observer times are
// seconds, so its events fed here would read 1000× small. The series are
// shared and safe for concurrent use; each run observes through its own
// Run(), which keeps that run's queue-entry times, so concurrent runs
// reusing the same task IDs never mix up their queue waits.
type SchedulerMetrics struct {
	TasksQueued    *Counter
	TasksCompleted *Counter
	Spoliations    *Counter
	WastedWork     *Counter
	QueueDepth     *Gauge
	TaskDuration   *Histogram
	QueueWait      *Histogram
	IdleEvents     *CounterVec

	// idleByKind caches the per-class children of IdleEvents: WorkerIdle
	// fires for every idle worker at every scheduling round, and going
	// through CounterVec.With there would put a lock, a map lookup, and a
	// first-use allocation on the scheduler's hot path.
	idleByKind [platform.NumKinds]*Counter
}

// NewSchedulerMetrics registers the scheduler metric catalog in r.
// Histogram buckets span the simulated durations of the paper's
// workloads (sub-millisecond kernels up to multi-second makespans).
func NewSchedulerMetrics(r *Registry) *SchedulerMetrics {
	buckets := ExpBuckets(0.5, 2, 16) // 0.5 ms .. ~16 s
	m := &SchedulerMetrics{
		TasksQueued:    r.Counter(MetricTasksQueued, "Tasks inserted into the ready queue."),
		TasksCompleted: r.Counter(MetricTasksCompleted, "Tasks that finished a successful run."),
		Spoliations:    r.Counter(MetricSpoliations, "Runs aborted by spoliation."),
		WastedWork:     r.Counter(MetricWastedWork, "Simulated milliseconds of work lost to aborted runs."),
		QueueDepth:     r.Gauge(MetricQueueDepth, "Ready-queue depth at the last scheduler decision point."),
		TaskDuration:   r.Histogram(MetricTaskDuration, "Successful run durations in simulated milliseconds.", buckets),
		QueueWait:      r.Histogram(MetricQueueWait, "Simulated milliseconds tasks spent in the ready queue before starting.", buckets),
		IdleEvents:     r.CounterVec(MetricWorkerIdle, "Worker-idle observations at scheduling rounds, by resource class.", "class"),
	}
	for k := range m.idleByKind {
		m.idleByKind[k] = m.IdleEvents.With(platform.Kind(k).String())
	}
	return m
}

// Run returns the Observer of one run, feeding m's series. It keeps the
// run's queue-entry times by task ID and, like the run's events, is used
// from one goroutine; call Run again for every run.
func (m *SchedulerMetrics) Run() Observer {
	return &runMetrics{m: m, queuedAt: map[int]float64{}}
}

// runMetrics is the Observer Run returns.
type runMetrics struct {
	m        *SchedulerMetrics
	queuedAt map[int]float64
}

func (r *runMetrics) TaskQueued(now float64, t platform.Task, depth int) {
	r.m.TasksQueued.Inc()
	r.m.QueueDepth.Set(float64(depth))
	r.queuedAt[t.ID] = now
}

func (r *runMetrics) TaskStarted(now float64, _ int, _ platform.Kind, t platform.Task, _ float64, spoliation bool) {
	if spoliation {
		// Restarts never pass through the queue.
		return
	}
	if at, ok := r.queuedAt[t.ID]; ok {
		delete(r.queuedAt, t.ID)
		r.m.QueueWait.Observe(now - at)
	}
}

func (r *runMetrics) TaskSpoliated(_ float64, _, _ int, _ platform.Task, wasted float64) {
	r.m.Spoliations.Inc()
	r.m.WastedWork.Add(wasted)
}

func (r *runMetrics) TaskCompleted(now float64, _ int, _ platform.Kind, _ platform.Task, start float64) {
	r.m.TasksCompleted.Inc()
	r.m.TaskDuration.Observe(now - start)
}

func (r *runMetrics) WorkerIdle(_ float64, _ int, kind platform.Kind) {
	r.m.idleByKind[kind].Inc()
}

func (r *runMetrics) QueueDepthSample(_ float64, depth int) {
	r.m.QueueDepth.Set(float64(depth))
}
