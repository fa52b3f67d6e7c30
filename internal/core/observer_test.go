package core

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/workloads"
)

// countingObserver tallies events for consistency checks against the
// finished schedule.
type countingObserver struct {
	queued, started, spoliated, completed, idle, depthSamples int
	restarts                                                  int
	wasted                                                    float64
	lastDepth                                                 int
}

func (c *countingObserver) TaskQueued(_ float64, _ platform.Task, depth int) {
	c.queued++
	c.lastDepth = depth
}

func (c *countingObserver) TaskStarted(_ float64, _ int, _ platform.Kind, _ platform.Task, _ float64, spoliation bool) {
	c.started++
	if spoliation {
		c.restarts++
	}
}

func (c *countingObserver) TaskSpoliated(_ float64, _, _ int, _ platform.Task, wasted float64) {
	c.spoliated++
	c.wasted += wasted
}

func (c *countingObserver) TaskCompleted(float64, int, platform.Kind, platform.Task, float64) {
	c.completed++
}

func (c *countingObserver) WorkerIdle(float64, int, platform.Kind) { c.idle++ }

func (c *countingObserver) QueueDepthSample(_ float64, depth int) {
	c.depthSamples++
	c.lastDepth = depth
}

// TestObserverEventsMatchSchedule cross-checks the live event stream
// against the post-hoc schedule on independent, DAG and online runs.
func TestObserverEventsMatchSchedule(t *testing.T) {
	pl := platform.NewPlatform(4, 2)
	rng := rand.New(rand.NewSource(7))
	in := workloads.UniformInstance(60, 1, 100, 0.2, 40, rng)

	t.Run("independent", func(t *testing.T) {
		c := &countingObserver{}
		res, err := ScheduleIndependent(in, pl, Options{Observer: c})
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(t, c, len(in), res.Spoliations)
		var wasted float64
		for _, e := range res.Schedule.Entries {
			if e.Aborted {
				wasted += e.Duration()
			}
		}
		if diff := c.wasted - wasted; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("observed wasted work %v, schedule says %v", c.wasted, wasted)
		}
	})

	t.Run("dag", func(t *testing.T) {
		g := workloads.Cholesky(6)
		c := &countingObserver{}
		res, err := ScheduleDAG(g, pl, Options{Observer: c})
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(t, c, g.Len(), res.Spoliations)
	})

	t.Run("online", func(t *testing.T) {
		tasks := make([]ReleasedTask, len(in))
		for i, task := range in {
			tasks[i] = ReleasedTask{Task: task, Release: float64(i % 10)}
		}
		c := &countingObserver{}
		res, err := ScheduleOnline(tasks, pl, Options{Observer: c})
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(t, c, len(in), res.Spoliations)
	})
}

func checkCounts(t *testing.T, c *countingObserver, tasks, spoliations int) {
	t.Helper()
	if c.queued != tasks {
		t.Errorf("queued events = %d, want %d", c.queued, tasks)
	}
	if c.completed != tasks {
		t.Errorf("completed events = %d, want %d", c.completed, tasks)
	}
	if c.spoliated != spoliations {
		t.Errorf("spoliated events = %d, want %d", c.spoliated, spoliations)
	}
	if c.restarts != spoliations {
		t.Errorf("spoliation restarts = %d, want %d", c.restarts, spoliations)
	}
	// Every execution attempt is a start: one per successful task run plus
	// one per aborted run.
	if c.started != tasks+spoliations {
		t.Errorf("started events = %d, want %d", c.started, tasks+spoliations)
	}
	if c.lastDepth != 0 {
		t.Errorf("final queue depth = %d, want 0", c.lastDepth)
	}
	if c.depthSamples == 0 {
		t.Error("no queue depth samples")
	}
}

// TestObserverNopZeroAlloc is the benchmark guard in test form: on each
// of HeteroPrio's entry points, scheduling with a no-op Observer must
// allocate exactly as much as with the hooks disabled — the emission
// sites pass only values and are branch-guarded.
func TestObserverNopZeroAlloc(t *testing.T) {
	pl := platform.NewPlatform(20, 4)
	in := workloads.UniformInstance(1000, 1, 100, 0.2, 40, rand.New(rand.NewSource(3)))
	g := workloads.Cholesky(12)
	tasks := arrivals(1000)
	calls := []struct {
		name string
		run  func(Options) error
	}{
		{"independent", func(o Options) error { _, err := ScheduleIndependent(in, pl, o); return err }},
		{"dag", func(o Options) error { _, err := ScheduleDAG(g, pl, o); return err }},
		{"online", func(o Options) error { _, err := ScheduleOnline(tasks, pl, o); return err }},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			base := allocsPerCall(t, func() error { return c.run(Options{}) })
			nop := allocsPerCall(t, func() error { return c.run(Options{Observer: obs.Nop{}}) })
			if nop > base {
				t.Errorf("no-op observer allocates: %v allocs/run vs %v disabled", nop, base)
			}
		})
	}
}
