package obs

import (
	"sync"

	"repro/internal/platform"
	"repro/internal/sim"
)

// EventKind discriminates timeline events.
type EventKind uint8

const (
	EventQueued EventKind = iota
	EventStarted
	EventSpoliated
	EventCompleted
	EventIdle
	EventQueueDepth
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventQueued:
		return "queued"
	case EventStarted:
		return "started"
	case EventSpoliated:
		return "spoliated"
	case EventCompleted:
		return "completed"
	case EventIdle:
		return "idle"
	case EventQueueDepth:
		return "queue-depth"
	default:
		return "unknown"
	}
}

// Event is one captured scheduling event. Field use depends on Kind:
// Worker is the victim for spoliations (Thief the restarting worker),
// Depth is set for queued and queue-depth events, Start for completions,
// Wasted for spoliations.
type Event struct {
	Kind       EventKind
	Now        float64
	Worker     int
	Thief      int
	Class      platform.Kind
	Task       platform.Task
	Depth      int
	Start      float64
	Wasted     float64
	Spoliation bool
}

// Timeline is an Observer that records every event in order, for live
// export: Schedule reconstructs the sim.Schedule observed so far, which
// internal/trace.Chrome turns into the same Perfetto JSON as the
// finished schedule. Safe for concurrent use, though events of concurrent runs
// interleave and should be captured on separate timelines.
type Timeline struct {
	mu     sync.Mutex
	events []Event
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

func (tl *Timeline) add(e Event) {
	tl.mu.Lock()
	tl.events = append(tl.events, e)
	tl.mu.Unlock()
}

func (tl *Timeline) TaskQueued(now float64, t platform.Task, depth int) {
	tl.add(Event{Kind: EventQueued, Now: now, Worker: -1, Thief: -1, Task: t, Depth: depth})
}

func (tl *Timeline) TaskStarted(now float64, worker int, kind platform.Kind, t platform.Task, estEnd float64, spoliation bool) {
	tl.add(Event{Kind: EventStarted, Now: now, Worker: worker, Thief: -1, Class: kind, Task: t, Start: estEnd, Spoliation: spoliation})
}

func (tl *Timeline) TaskSpoliated(now float64, victim, thief int, t platform.Task, wasted float64) {
	tl.add(Event{Kind: EventSpoliated, Now: now, Worker: victim, Thief: thief, Task: t, Wasted: wasted})
}

func (tl *Timeline) TaskCompleted(now float64, worker int, kind platform.Kind, t platform.Task, start float64) {
	tl.add(Event{Kind: EventCompleted, Now: now, Worker: worker, Thief: -1, Class: kind, Task: t, Start: start})
}

func (tl *Timeline) WorkerIdle(now float64, worker int, kind platform.Kind) {
	tl.add(Event{Kind: EventIdle, Now: now, Worker: worker, Thief: -1, Class: kind})
}

func (tl *Timeline) QueueDepthSample(now float64, depth int) {
	tl.add(Event{Kind: EventQueueDepth, Now: now, Worker: -1, Thief: -1, Depth: depth})
}

// Len returns the number of captured events.
func (tl *Timeline) Len() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return len(tl.events)
}

// Events returns a copy of the captured events in emission order.
func (tl *Timeline) Events() []Event {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return append([]Event(nil), tl.events...)
}

// Schedule reconstructs the schedule observed so far from the start,
// spoliation and completion events: the bridge from live capture to the
// post-hoc exporters (trace.Chrome, trace.SVG, sim metrics). Runs
// still open when the timeline is snapshotted are closed at their last
// observed instant and marked aborted.
func (tl *Timeline) Schedule(pl platform.Platform) *sim.Schedule {
	tl.mu.Lock()
	events := tl.events
	s := &sim.Schedule{Platform: pl}
	open := make([]int, pl.Workers())
	for i := range open {
		open[i] = -1
	}
	last := 0.0
	for _, e := range events {
		if e.Now > last {
			last = e.Now
		}
		switch e.Kind {
		case EventStarted:
			open[e.Worker] = len(s.Entries)
			s.Entries = append(s.Entries, sim.Entry{
				TaskID: e.Task.ID, Worker: e.Worker, Kind: e.Class,
				Start: e.Now, End: e.Now, Spoliation: e.Spoliation,
			})
		case EventSpoliated:
			if i := open[e.Worker]; i >= 0 {
				s.Entries[i].End = e.Now
				s.Entries[i].Aborted = true
				open[e.Worker] = -1
			}
		case EventCompleted:
			if i := open[e.Worker]; i >= 0 {
				s.Entries[i].End = e.Now
				open[e.Worker] = -1
			}
		}
	}
	tl.mu.Unlock()
	for _, i := range open {
		if i >= 0 {
			s.Entries[i].End = last
			s.Entries[i].Aborted = true
		}
	}
	return s
}
