package core

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// allocsPerCall returns the average number of allocations of one call of
// f, rounded down as testing.AllocsPerRun does. The collector is off: a
// collection during the measurement wakes runtime goroutines that
// allocate (the unique package's map cleanup), and AllocsPerRun counts
// every goroutine's allocations.
func allocsPerCall(t *testing.T, f func() error) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var err error
	n := testing.AllocsPerRun(3, func() {
		if e := f(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestScheduleAllocsPerCall holds HeteroPrio's three entry points to a
// fixed allocation budget per call, from 10² to 3·10⁴ tasks and from 24
// to 544 workers. The setup allocates once per call and the schedule's
// entry list grows by doubling; the event loop (sim's loop and kernel,
// the ready queue, the victim heaps and the policy hooks) allocates
// nothing, so one allocation per event or per decision round would add
// hundreds to thousands. The budgets sit above the counts measured with
// Go 1.24: 11 for independent tasks at every size, 24-38 for the
// factorizations and 21-30 for arrivals. The race detector adds one.
func TestScheduleAllocsPerCall(t *testing.T) {
	const (
		independentBudget = 16
		dagBudget         = 48
		onlineBudget      = 48
	)
	platforms := []platform.Platform{platform.NewPlatform(20, 4), platform.NewPlatform(480, 64)}
	check := func(t *testing.T, budget float64, f func() error) {
		t.Helper()
		if got := allocsPerCall(t, f); got > budget {
			t.Errorf("%v allocations per call, budget %v", got, budget)
		}
	}
	for _, pl := range platforms {
		for _, n := range []int{100, 1000, 10000, 30000} {
			in := workloads.UniformInstance(n, 1, 100, 0.2, 40, rand.New(rand.NewSource(int64(n))))
			t.Run(fmt.Sprintf("independent/%d+%d/n=%d", pl.CPUs, pl.GPUs, n), func(t *testing.T) {
				check(t, independentBudget, func() error {
					_, err := ScheduleIndependent(in, pl, Options{})
					return err
				})
			})
		}
		for _, f := range workloads.Factorizations() {
			for _, N := range []int{4, 12, 24} {
				g, err := workloads.Build(f, N)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("dag/%d+%d/%s/N=%d", pl.CPUs, pl.GPUs, f, N), func(t *testing.T) {
					check(t, dagBudget, func() error {
						_, err := ScheduleDAG(g, pl, Options{UsePriorities: true})
						return err
					})
				})
			}
		}
		for _, n := range []int{100, 2000} {
			tasks := arrivals(n)
			t.Run(fmt.Sprintf("online/%d+%d/n=%d", pl.CPUs, pl.GPUs, n), func(t *testing.T) {
				check(t, onlineBudget, func() error {
					_, err := ScheduleOnline(tasks, pl, Options{})
					return err
				})
			})
		}
	}
}

// arrivals returns n seeded tasks released in bursts of ten, one burst
// per time unit, so the queue drains and refills and idle workers
// attempt spoliations between bursts.
func arrivals(n int) []ReleasedTask {
	in := workloads.UniformInstance(n, 1, 100, 0.2, 40, rand.New(rand.NewSource(int64(n))))
	tasks := make([]ReleasedTask, n)
	for i, task := range in {
		tasks[i] = ReleasedTask{Task: task, Release: float64(i / 10)}
	}
	return tasks
}

// TestPickVictimAllocFree: the live runtime calls PickVictim on every
// spoliation attempt, so the one-pass pick must not allocate.
func TestPickVictimAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	victims := make([]sim.Running, 64)
	for i := range victims {
		tk := platform.Task{ID: i, CPUTime: float64(1 + rng.Intn(20)), GPUTime: float64(1 + rng.Intn(20)), Priority: float64(rng.Intn(3))}
		victims[i] = sim.Running{Worker: i, Task: tk, End: 30, EstEnd: float64(10 + rng.Intn(20))}
	}
	var picked int
	got := allocsPerCall(t, func() error {
		picked = PickVictim(victims, 1, platform.GPU, DefaultEps)
		return nil
	})
	if got != 0 {
		t.Errorf("PickVictim allocates %v times per call", got)
	}
	if picked < 0 {
		t.Error("no victim picked; the candidates must exercise the comparison")
	}
}
