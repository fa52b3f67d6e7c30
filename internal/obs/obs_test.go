package obs

import (
	"encoding/json"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

func TestSchedulerMetricsObserver(t *testing.T) {
	r := NewRegistry()
	m := NewSchedulerMetrics(r)
	o := m.Run()
	task := platform.Task{ID: 3, CPUTime: 10, GPUTime: 2}

	o.TaskQueued(0, task, 1)
	o.TaskStarted(4, 0, platform.GPU, task, 6, false)
	o.TaskCompleted(6, 0, platform.GPU, task, 4)
	o.TaskSpoliated(6, 1, 0, task, 2.5)
	o.WorkerIdle(6, 1, platform.CPU)
	o.QueueDepthSample(6, 0)

	if got := m.TasksCompleted.Value(); got != 1 {
		t.Errorf("completed = %v", got)
	}
	if got := m.Spoliations.Value(); got != 1 {
		t.Errorf("spoliations = %v", got)
	}
	if got := m.WastedWork.Value(); got != 2.5 {
		t.Errorf("wasted = %v", got)
	}
	if got := m.QueueDepth.Value(); got != 0 {
		t.Errorf("queue depth = %v", got)
	}
	if got := m.QueueWait.Sum(); got != 4 {
		t.Errorf("queue wait sum = %v, want 4", got)
	}
	if got := m.TaskDuration.Sum(); got != 2 {
		t.Errorf("duration sum = %v, want 2", got)
	}
	// A spoliation restart must not record a queue wait.
	o.TaskQueued(10, task, 1)
	o.TaskStarted(12, 0, platform.GPU, task, 14, true)
	if got := m.QueueWait.Count(); got != 1 {
		t.Errorf("restart recorded a queue wait (count=%d)", got)
	}
}

// TestSchedulerMetricsConcurrentRuns interleaves two runs of one
// workload, which reuse task IDs, as hpserve's concurrent requests do.
// Each run's queue wait is its own: run A waits 2, run B waits 3.
func TestSchedulerMetricsConcurrentRuns(t *testing.T) {
	m := NewSchedulerMetrics(NewRegistry())
	a, b := m.Run(), m.Run()
	task := platform.Task{ID: 5, CPUTime: 1, GPUTime: 1}
	a.TaskQueued(10, task, 1)
	b.TaskQueued(0, task, 1)
	a.TaskStarted(12, 0, platform.CPU, task, 13, false)
	b.TaskStarted(3, 0, platform.CPU, task, 4, false)
	if n, sum := m.QueueWait.Count(), m.QueueWait.Sum(); n != 2 || sum != 5 {
		t.Errorf("queue waits: %d samples summing %v, want 2 summing 5", n, sum)
	}
}

func TestSummarize(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	in := platform.Instance{
		{ID: 0, CPUTime: 10, GPUTime: 2},
		{ID: 1, CPUTime: 4, GPUTime: 4},
	}
	s := &sim.Schedule{Platform: pl, Entries: []sim.Entry{
		{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 2},
		{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 0, End: 3, Aborted: true},
		{TaskID: 1, Worker: 1, Kind: platform.GPU, Start: 3, End: 7, Spoliation: true},
	}}
	sum := Summarize(s, in, 5)
	if sum.Makespan != 7 || sum.Ratio != 7.0/5 {
		t.Errorf("makespan/ratio = %v/%v", sum.Makespan, sum.Ratio)
	}
	if sum.Spoliations != 1 || sum.WastedWork != 3 {
		t.Errorf("spoliations/wasted = %d/%v", sum.Spoliations, sum.WastedWork)
	}
	if sum.GPUBusy != 6 || sum.GPUIdle != 1 {
		t.Errorf("gpu busy/idle = %v/%v", sum.GPUBusy, sum.GPUIdle)
	}
	// The CPU executed nothing successfully: its equivalent acceleration is
	// NaN in the paper's definition and must sanitize to 0 for JSON.
	if sum.CPUEquivAccel != 0 {
		t.Errorf("cpu equiv accel = %v, want 0", sum.CPUEquivAccel)
	}
	if _, err := json.Marshal(sum); err != nil {
		t.Errorf("summary does not marshal: %v", err)
	}
}

func TestRunLogRing(t *testing.T) {
	l := NewRunLog(3)
	if got := l.Recent(); len(got) != 0 {
		t.Errorf("empty log returned %d entries", len(got))
	}
	for i := 1; i <= 5; i++ {
		l.Add(RunSummary{Tasks: i})
	}
	got := l.Recent()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []int{5, 4, 3} {
		if got[i].Tasks != want {
			t.Errorf("recent[%d].Tasks = %d, want %d", i, got[i].Tasks, want)
		}
	}
}

func TestTimelineSchedule(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	tl := NewTimeline()
	a := platform.Task{ID: 0, CPUTime: 10, GPUTime: 1}
	b := platform.Task{ID: 1, CPUTime: 10, GPUTime: 2}

	tl.TaskQueued(0, a, 1)
	tl.TaskQueued(0, b, 2)
	tl.TaskStarted(0, 1, platform.GPU, a, 1, false)
	tl.TaskStarted(0, 0, platform.CPU, b, 10, false)
	tl.TaskCompleted(1, 1, platform.GPU, a, 0)
	// GPU spoliates b from the CPU and restarts it.
	tl.TaskSpoliated(1, 0, 1, b, 1)
	tl.TaskStarted(1, 1, platform.GPU, b, 3, true)
	tl.TaskCompleted(3, 1, platform.GPU, b, 1)
	tl.QueueDepthSample(3, 0)

	s := tl.Schedule(pl)
	if len(s.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(s.Entries))
	}
	if s.SpoliationCount() != 1 {
		t.Errorf("spoliations = %d, want 1", s.SpoliationCount())
	}
	if s.Makespan() != 3 {
		t.Errorf("makespan = %v, want 3", s.Makespan())
	}
	if err := s.Validate(platform.Instance{a, b}, nil); err != nil {
		t.Errorf("reconstructed schedule invalid: %v", err)
	}
	if tl.Len() != 9 {
		t.Errorf("timeline len = %d, want 9", tl.Len())
	}

	// An open run at snapshot time is closed and marked aborted.
	tl2 := NewTimeline()
	tl2.TaskStarted(0, 0, platform.CPU, a, 10, false)
	tl2.QueueDepthSample(4, 0)
	s2 := tl2.Schedule(pl)
	if len(s2.Entries) != 1 || !s2.Entries[0].Aborted || s2.Entries[0].End != 4 {
		t.Errorf("open run not closed as aborted: %+v", s2.Entries)
	}
}

func TestEventKindString(t *testing.T) {
	names := map[EventKind]string{
		EventQueued: "queued", EventStarted: "started", EventSpoliated: "spoliated",
		EventCompleted: "completed", EventIdle: "idle", EventQueueDepth: "queue-depth",
		EventKind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
