package serve

import (
	"context"
	"errors"

	"repro/internal/obs"
)

// Metric names of the admission controller (DESIGN.md §7 catalog).
const (
	MetricServeQueued           = "hp_serve_queued"
	MetricServeShed             = "hp_serve_shed_total"
	MetricServeDeadlineExceeded = "hp_serve_deadline_exceeded_total"
)

// ErrQueueFull is returned by Acquire when the bounded admission queue is
// full: the request is shed immediately instead of waiting. hpserve maps
// it to HTTP 429.
var ErrQueueFull = errors.New("serve: admission queue full, request shed")

// Admission is the load-control valve in front of the simulation path: at
// most `concurrent` requests execute at once, at most `queueDepth` more
// wait for a slot, and everything beyond that is shed immediately. The
// admission state machine per request is
//
//	arrive ── free slot ──────────────▶ running ── release ─▶ done
//	   │
//	   └─ queue has room ─▶ queued ── slot frees ─▶ running
//	   │                      │
//	   │                      └─ ctx deadline ─▶ rejected (503)
//	   └─ queue full ─▶ shed (429)
//
// Both channels are used as counting semaphores; Admission holds no
// goroutines and is safe for concurrent use.
type Admission struct {
	slots chan struct{} // one token per executing request
	queue chan struct{} // one token per waiting request

	queued   *obs.Gauge
	shed     *obs.Counter
	deadline *obs.Counter
}

// NewAdmission returns an admission controller allowing `concurrent`
// executing requests (minimum 1) and `queueDepth` waiting ones (0 means
// shed as soon as every slot is busy). Metrics are registered in reg, or
// in a private registry when reg is nil.
func NewAdmission(concurrent, queueDepth int, reg *obs.Registry) *Admission {
	if concurrent < 1 {
		concurrent = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Admission{
		slots: make(chan struct{}, concurrent),
		queue: make(chan struct{}, queueDepth),
		queued: reg.Gauge(MetricServeQueued,
			"Requests admitted to the bounded queue and waiting for an execution slot."),
		shed: reg.Counter(MetricServeShed,
			"Requests shed with 429 because the admission queue was full."),
		deadline: reg.Counter(MetricServeDeadlineExceeded,
			"Requests rejected with 503 because their deadline expired before completion."),
	}
}

// Concurrent returns the number of execution slots.
func (a *Admission) Concurrent() int { return cap(a.slots) }

// QueueDepth returns the queue bound.
func (a *Admission) QueueDepth() int { return cap(a.queue) }

// Acquire admits one request: it returns a release function once an
// execution slot is held, ErrQueueFull if every slot is busy and the
// queue is full, or ctx.Err() if ctx ends while queued. The caller must
// call release exactly once when the request finishes.
//
// When ctx carries a trace span, Acquire records an "admission" child
// span covering the wait, annotated with the outcome (fast_path, queued,
// shed, deadline) — the span that answers "was this slow request stuck
// behind the admission valve?".
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	asp := obs.SpanFromContext(ctx).StartChild("admission")
	defer asp.End()
	// Fast path: a slot is free, skip the queue entirely.
	select {
	case a.slots <- struct{}{}:
		asp.Annotate("outcome", "fast_path")
		return a.release, nil
	default:
	}
	select {
	case a.queue <- struct{}{}:
	default:
		a.shed.Inc()
		asp.Annotate("outcome", "shed")
		return nil, ErrQueueFull
	}
	a.queued.Add(1)
	leave := func() {
		a.queued.Add(-1)
		<-a.queue
	}
	select {
	case a.slots <- struct{}{}:
		leave()
		asp.Annotate("outcome", "queued")
		return a.release, nil
	case <-ctx.Done():
		leave()
		asp.Annotate("outcome", "deadline")
		return nil, ctx.Err()
	}
}

func (a *Admission) release() { <-a.slots }

// MarkDeadline records one deadline-expired rejection. The counter lives
// here with the other admission metrics, but the increment belongs to the
// layer that maps errors to HTTP statuses: a deadline can fire while
// queued in Acquire or while waiting on a coalesced cache computation,
// and only the handler sees both paths (counting inside Acquire would
// miss the latter and double-count retries).
func (a *Admission) MarkDeadline() { a.deadline.Inc() }
