package obs

import (
	"sync"

	"repro/internal/platform"
)

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

// SchedulerMetrics is an Observer that feeds a Registry with live
// counters, gauges and histograms for the quantities the paper's analysis
// is phrased in: completed tasks, spoliations and their wasted work, queue
// depth, task durations and queue-wait times. It is safe for concurrent
// use by several simultaneous runs; the queue-wait histogram is then an
// aggregate over all of them (task IDs of concurrent runs may collide, in
// which case a wait sample is attributed to the latest queue entry).
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

	mu       sync.Mutex
	queuedAt map[int]float64
}

// NewSchedulerMetrics registers the scheduler metric catalog in r and
// returns the Observer feeding it. Histogram buckets span the simulated
// durations of the paper's workloads (sub-millisecond kernels up to
// multi-second makespans).
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
		queuedAt:       map[int]float64{},
	}
	for k := range m.idleByKind {
		m.idleByKind[k] = m.IdleEvents.With(platform.Kind(k).String())
	}
	return m
}

func (m *SchedulerMetrics) TaskQueued(now float64, t platform.Task, depth int) {
	m.TasksQueued.Inc()
	m.QueueDepth.Set(float64(depth))
	m.mu.Lock()
	m.queuedAt[t.ID] = now
	m.mu.Unlock()
}

func (m *SchedulerMetrics) TaskStarted(now float64, _ int, _ platform.Kind, t platform.Task, _ float64, spoliation bool) {
	if spoliation {
		// Restarts never pass through the queue.
		return
	}
	m.mu.Lock()
	at, ok := m.queuedAt[t.ID]
	if ok {
		delete(m.queuedAt, t.ID)
	}
	m.mu.Unlock()
	if ok {
		m.QueueWait.Observe(now - at)
	}
}

func (m *SchedulerMetrics) TaskSpoliated(_ float64, _, _ int, _ platform.Task, wasted float64) {
	m.Spoliations.Inc()
	m.WastedWork.Add(wasted)
}

func (m *SchedulerMetrics) TaskCompleted(now float64, _ int, _ platform.Kind, _ platform.Task, start float64) {
	m.TasksCompleted.Inc()
	m.TaskDuration.Observe(now - start)
}

func (m *SchedulerMetrics) WorkerIdle(_ float64, _ int, kind platform.Kind) {
	m.idleByKind[kind].Inc()
}

func (m *SchedulerMetrics) QueueDepthSample(_ float64, depth int) {
	m.QueueDepth.Set(float64(depth))
}
