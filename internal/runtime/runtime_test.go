package runtime

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/tile"
)

// sleepTask returns a task sleeping for the given per-class durations,
// polling for cancellation every poll interval.
func sleepTask(name string, cpu, gpu time.Duration) Task {
	return Task{
		Name:   name,
		EstCPU: cpu.Seconds(),
		EstGPU: gpu.Seconds(),
		Run: func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
			d := cpu
			if kind == platform.GPU {
				d = gpu
			}
			deadline := time.Now().Add(d)
			for time.Now().Before(deadline) {
				if flag.Cancelled() {
					return false, nil
				}
				//hplint:allow sleepsync paces a simulated kernel between cancellation polls; completion is signalled via channels, not the sleep
				time.Sleep(200 * time.Microsecond)
			}
			return true, nil
		},
	}
}

func TestRunValidatesInputs(t *testing.T) {
	g := NewGraph()
	g.Add(Task{Name: "norun", EstCPU: 1, EstGPU: 1})
	if _, err := Run(g, Config{CPUWorkers: 1}); err == nil {
		t.Error("task without Run accepted")
	}
	if _, err := Run(NewGraph(), Config{}); err == nil {
		t.Error("empty platform accepted")
	}
}

func TestRunSimpleChain(t *testing.T) {
	g := NewGraph()
	var order []int32
	var mu int32
	mk := func(id int32) Task {
		return Task{
			Name: "t", EstCPU: 0.001, EstGPU: 0.001,
			Run: func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				atomic.AddInt32(&mu, 1)
				order = append(order, id) // safe: chain forces sequential
				return true, nil
			},
		}
	}
	a := g.Add(mk(0))
	b := g.Add(mk(1))
	c := g.Add(mk(2))
	g.AddDep(a, b)
	g.AddDep(b, c)
	rep, err := Run(g, Config{CPUWorkers: 2, GPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("execution order %v", order)
	}
	if rep.Wall <= 0 {
		t.Error("wall time not measured")
	}
	if got := len(rep.Trace.SuccessfulEntries()); got != 3 {
		t.Errorf("trace has %d successful entries, want 3", got)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	g := NewGraph()
	boom := errors.New("boom")
	g.Add(Task{
		Name: "bad", EstCPU: 0.001, EstGPU: 0.001,
		Run: func(platform.Kind, *cancel.Flag) (bool, error) { return true, boom },
	})
	if _, err := Run(g, Config{CPUWorkers: 1}); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestRunParallelIndependent(t *testing.T) {
	g := NewGraph()
	var count int32
	for i := 0; i < 20; i++ {
		g.Add(Task{
			Name: "p", EstCPU: 0.001, EstGPU: 0.001,
			Run: func(platform.Kind, *cancel.Flag) (bool, error) {
				atomic.AddInt32(&count, 1)
				return true, nil
			},
		})
	}
	if _, err := Run(g, Config{CPUWorkers: 4, GPUWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Errorf("ran %d tasks, want 20", count)
	}
}

// TestRunSpoliation builds the classic two-task trap: both tasks strongly
// prefer the GPU class; the CPU worker grabs one and the GPU worker should
// spoliate it after finishing the other.
func TestRunSpoliation(t *testing.T) {
	g := NewGraph()
	g.Add(sleepTask("a", 200*time.Millisecond, 5*time.Millisecond))
	g.Add(sleepTask("b", 200*time.Millisecond, 5*time.Millisecond))
	rep, err := Run(g, Config{CPUWorkers: 1, GPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spoliations != 1 {
		t.Errorf("spoliations = %d, want 1", rep.Spoliations)
	}
	// Both GPU runs take ~5ms; the spoliated CPU run aborts quickly. The
	// whole thing must finish well below the 200ms CPU duration.
	if rep.Wall > 150*time.Millisecond {
		t.Errorf("wall time %v suggests spoliation did not happen", rep.Wall)
	}
	// Trace must contain exactly one aborted entry and one spoliation run.
	aborted, spol := 0, 0
	for _, e := range rep.Trace.Entries {
		if e.Aborted {
			aborted++
		} else if e.Spoliation {
			spol++
		}
	}
	if aborted != 1 || spol != 1 {
		t.Errorf("trace aborted=%d spoliation=%d, want 1/1", aborted, spol)
	}
}

func TestRunNoSpoliationWhenDisabled(t *testing.T) {
	g := NewGraph()
	g.Add(sleepTask("a", 50*time.Millisecond, 2*time.Millisecond))
	g.Add(sleepTask("b", 50*time.Millisecond, 2*time.Millisecond))
	rep, err := Run(g, Config{CPUWorkers: 1, GPUWorkers: 1, DisableSpoliation: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spoliations != 0 {
		t.Errorf("spoliations = %d, want 0", rep.Spoliations)
	}
	if rep.Wall < 45*time.Millisecond {
		t.Errorf("wall %v too fast: CPU must have kept its task", rep.Wall)
	}
}

func TestCalibrateCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	est := CalibrateCholesky(96, rng)
	if est.B != 96 {
		t.Errorf("B = %d", est.B)
	}
	for name, pair := range map[string][2]float64{
		"POTRF": est.POTRF, "TRSM": est.TRSM, "SYRK": est.SYRK, "GEMM": est.GEMM,
	} {
		if pair[0] <= 0 || pair[1] <= 0 {
			t.Errorf("%s: non-positive estimate %v", name, pair)
		}
	}
	// The blocked GEMM should beat the naive one at this size.
	if est.Accel() < 1 {
		t.Logf("warning: fast GEMM not faster (accel %.2f); machine noise?", est.Accel())
	}
}

// TestCholeskyGraphNumerics is the flagship integration test: factor a
// real SPD matrix with the real-time HeteroPrio executor (spoliation
// enabled, mixed worker classes) and verify L*L^T == A numerically.
func TestCholeskyGraphNumerics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, b = 192, 48
	a := tile.RandomSPD(n, rng)
	want, err := tile.CholeskyDense(a)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tile.NewTiled(a, b)
	if err != nil {
		t.Fatal(err)
	}
	est := CalibrateCholesky(b, rng)
	g, err := CholeskyGraph(td, est)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, Config{CPUWorkers: 2, GPUWorkers: 1, UsePriorities: true})
	if err != nil {
		t.Fatal(err)
	}
	got := td.Assemble()
	var d float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d = math.Max(d, math.Abs(got.At(i, j)-want.At(i, j)))
		}
	}
	if d > 1e-8 {
		t.Errorf("factor differs from dense reference by %v (spoliations=%d)", d, rep.Spoliations)
	}
	if len(rep.Trace.SuccessfulEntries()) != g.Len() {
		t.Errorf("trace has %d successful runs, want %d", len(rep.Trace.SuccessfulEntries()), g.Len())
	}
}

// TestCholeskyGraphWithSpoliationStress repeats the numeric test with a
// worker mix that provokes spoliation (many slow CPU workers, one fast
// class) and verifies correctness is preserved even when runs are
// cancelled and restarted.
func TestCholeskyGraphWithSpoliationStress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, b = 240, 48
	a := tile.RandomSPD(n, rng)
	want, err := tile.CholeskyDense(a)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tile.NewTiled(a, b)
	if err != nil {
		t.Fatal(err)
	}
	est := CalibrateCholesky(b, rng)
	// Exaggerate the acceleration estimates so the policy spoliates
	// aggressively.
	est.GEMM[1] /= 4
	est.SYRK[1] /= 4
	est.TRSM[1] /= 4
	g, err := CholeskyGraph(td, est)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, Config{CPUWorkers: 3, GPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := td.Assemble()
	var d float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d = math.Max(d, math.Abs(got.At(i, j)-want.At(i, j)))
		}
	}
	if d > 1e-8 {
		t.Errorf("factor wrong by %v after %d spoliations", d, rep.Spoliations)
	}
	t.Logf("spoliations: %d, wall: %v", rep.Spoliations, rep.Wall)
}

func TestCholeskyGraphEstimateMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tile.RandomSPD(8, rng)
	td, err := tile.NewTiled(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CholeskyGraph(td, CholeskyEstimates{B: 8}); err == nil {
		t.Error("tile size mismatch accepted")
	}
}

func TestRunHomogeneousCPUPool(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 6; i++ {
		g.Add(sleepTask("t", time.Millisecond, time.Millisecond))
	}
	rep, err := Run(g, Config{CPUWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spoliations != 0 {
		t.Errorf("spoliations on a homogeneous pool: %d", rep.Spoliations)
	}
	if got := len(rep.Trace.SuccessfulEntries()); got != 6 {
		t.Errorf("%d successful runs, want 6", got)
	}
}

func TestRunGPUOnlyPool(t *testing.T) {
	g := NewGraph()
	g.Add(sleepTask("t", time.Millisecond, time.Millisecond))
	rep, err := Run(g, Config{GPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wall <= 0 {
		t.Error("no wall time measured")
	}
}

// TestRunManualClock: with an injected frozen clock, every observed
// timestamp is deterministic — the live executor's replayability hinges on
// its time source being injectable, which the simdeterminism analyzer
// enforces by forbidding bare time.Now in this package.
func TestRunManualClock(t *testing.T) {
	g := NewGraph()
	mk := func() Task {
		return Task{
			Name: "t", EstCPU: 0.001, EstGPU: 0.001,
			Run: func(platform.Kind, *cancel.Flag) (bool, error) { return true, nil },
		}
	}
	a := g.Add(mk())
	b := g.Add(mk())
	g.AddDep(a, b)
	clk := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	rep, err := Run(g, Config{CPUWorkers: 1, GPUWorkers: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wall != 0 {
		t.Errorf("frozen clock measured wall %v, want 0", rep.Wall)
	}
	for _, e := range rep.Trace.Entries {
		if e.Start != 0 || e.End != 0 {
			t.Errorf("frozen clock produced entry [%v,%v], want [0,0]", e.Start, e.End)
		}
	}
	if got := len(rep.Trace.SuccessfulEntries()); got != 2 {
		t.Errorf("%d successful runs, want 2", got)
	}
}

// completedSignal closes done when the coordinator retires task id's
// successful run.
type completedSignal struct {
	obs.Nop
	id   int
	done chan struct{}
}

func (c completedSignal) TaskCompleted(_ float64, _ int, _ platform.Kind, t platform.Task, _ float64) {
	if t.ID == c.id {
		close(c.done)
	}
}

// TestRunSpoliatesByVictimRule pins the live executor to HeteroPrio's
// victim rule (core.PickVictim states it) under a frozen clock on 1 CPU +
// 2 GPUs.
// Both GPU runs end at the same estimated instant; the second has a
// successor, so its min bottom level, and with it its priority, is the
// higher one. When the CPU frees up with an empty queue it must cancel
// that run: ordering tied victims by task ID would cancel the first.
//
// The restarted second task finishes on the CPU only once the coordinator
// has retired the first task's GPU run. Otherwise the CPU could free up
// again while the first run still looks busy to the frozen clock and
// spoliate it too.
func TestRunSpoliatesByVictimRule(t *testing.T) {
	spoliated := make(chan struct{})
	var once sync.Once
	signal := func() { once.Do(func() { close(spoliated) }) }
	// Unblock the GPU runs even if no spoliation ever comes, so a
	// regression fails the assertions below instead of hanging.
	defer time.AfterFunc(10*time.Second, signal).Stop()
	const firstID = 0
	firstDone := make(chan struct{})
	gpuTask := func(name string) Task {
		return Task{
			Name: name, EstCPU: 1, EstGPU: 2,
			Run: func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				if kind == platform.CPU {
					if name == "second" {
						select {
						case <-firstDone:
						case <-time.After(10 * time.Second):
						}
					}
					return true, nil
				}
				for {
					if flag.Cancelled() {
						signal()
						return false, nil
					}
					select {
					case <-spoliated:
						return true, nil
					case <-time.After(100 * time.Microsecond):
					}
				}
			},
		}
	}
	done := func(platform.Kind, *cancel.Flag) (bool, error) { return true, nil }
	g := NewGraph()
	if id := g.Add(gpuTask("first")); id != firstID {
		t.Fatalf("first task has ID %d, want %d", id, firstID)
	}
	second := g.Add(gpuTask("second"))
	g.Add(Task{Name: "cpu", EstCPU: 1, EstGPU: 100, Run: done})
	succ := g.Add(Task{Name: "succ", EstCPU: 1, EstGPU: 1, Run: done})
	g.AddDep(second, succ)
	clk := clock.NewManual(time.Unix(0, 0))
	o := completedSignal{id: firstID, done: firstDone}
	rep, err := Run(g, Config{CPUWorkers: 1, GPUWorkers: 2, UsePriorities: true, Clock: clk, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spoliations != 1 {
		t.Fatalf("spoliations = %d, want 1", rep.Spoliations)
	}
	for _, e := range rep.Trace.Entries {
		if e.Aborted && e.TaskID != second {
			t.Errorf("cancelled task %d, want the higher-priority task %d", e.TaskID, second)
		}
	}
}

// TestCalibrateClock: the calibrators accept an injected clock; frozen
// time yields zero estimates, proving no hidden wall-clock read feeds the
// measurement.
func TestCalibrateClock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clk := clock.NewManual(time.Unix(0, 0))
	est := CalibrateCholeskyClock(4, rng, clk)
	for _, d := range [][2]float64{est.POTRF, est.TRSM, est.SYRK, est.GEMM} {
		if d[0] != 0 || d[1] != 0 {
			t.Fatalf("frozen clock measured nonzero cholesky estimate %v", d)
		}
	}
	lu := CalibrateLUClock(4, rng, clk)
	if lu.GETRF != 0 || lu.TRSM != 0 || lu.GEMM[0] != 0 || lu.GEMM[1] != 0 {
		t.Fatalf("frozen clock measured nonzero LU estimates %+v", lu)
	}
	qr := CalibrateQRClock(4, rng, clk)
	for _, d := range [][2]float64{qr.GEQRT, qr.LARFB, qr.TSQRT, qr.TSMQR} {
		if d[0] != 0 || d[1] != 0 {
			t.Fatalf("frozen clock measured nonzero QR estimate %v", d)
		}
	}
}

// depthSamples counts the queue-depth samples on top of the scheduler
// metrics, whose depth gauge keeps only the last one.
type depthSamples struct {
	obs.Observer
	*obs.SchedulerMetrics
	n int
}

func (d *depthSamples) QueueDepthSample(now float64, depth int) {
	d.n++
	d.Observer.QueueDepthSample(now, depth)
}

// TestRunObserver checks the live executor emits the same observer event
// stream as the simulator loops: every task is queued, started, and
// completed, spoliations surface as TaskSpoliated, the rounds report idle
// workers and queue depths, and the per-event counts reconcile with the
// returned Report.
func TestRunObserver(t *testing.T) {
	g := NewGraph()
	g.Add(sleepTask("a", 200*time.Millisecond, 5*time.Millisecond))
	g.Add(sleepTask("b", 200*time.Millisecond, 5*time.Millisecond))
	m := obs.NewSchedulerMetrics(obs.NewRegistry())
	so := &depthSamples{Observer: m.Run(), SchedulerMetrics: m}
	rep, err := Run(g, Config{
		CPUWorkers: 1, GPUWorkers: 1,
		Observer: so,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := so.TasksCompleted.Value(); got != 2 {
		t.Errorf("observer completions = %v, want 2", got)
	}
	if got := so.Spoliations.Value(); int(got) != rep.Spoliations {
		t.Errorf("observer spoliations = %v, report says %d", got, rep.Spoliations)
	}
	if got := so.TasksQueued.Value(); got < 2 {
		t.Errorf("observer queued = %v, want >= 2", got)
	}
	// The GPU spoliates b from the CPU, which then idles until the end.
	if got := so.IdleEvents.With(platform.CPU.String()).Value(); got < 1 {
		t.Errorf("observer CPU idle events = %v, want >= 1", got)
	}
	if so.n < 2 {
		t.Errorf("observer queue-depth samples = %d, want one per round, >= 2", so.n)
	}
}

// TestRunExecutesPolicyDecisions holds what the executor ran to what the
// policy decided, on the spoliation-stress Cholesky of
// TestCholeskyGraphWithSpoliationStress over five seeds. The policy's
// schedule is rebuilt from its observer events. Every successful measured
// run must be on the worker where the policy finished the task, and every
// cancelled run must be a run the policy aborted on that worker.
func TestRunExecutesPolicyDecisions(t *testing.T) {
	const n, b = 240, 48
	pl := platform.NewPlatform(3, 1)
	for seed := range int64(5) {
		rng := rand.New(rand.NewSource(seed))
		td, err := tile.NewTiled(tile.RandomSPD(n, rng), b)
		if err != nil {
			t.Fatal(err)
		}
		est := CalibrateCholesky(b, rng)
		est.GEMM[1] /= 4
		est.SYRK[1] /= 4
		est.TRSM[1] /= 4
		g, err := CholeskyGraph(td, est)
		if err != nil {
			t.Fatal(err)
		}
		tl := obs.NewTimeline()
		rep, err := Run(g, Config{CPUWorkers: pl.CPUs, GPUWorkers: pl.GPUs, Observer: tl})
		if err != nil {
			t.Fatal(err)
		}
		finishedOn := make([]int, g.Len())
		for id := range finishedOn {
			finishedOn[id] = -1
		}
		aborted := make(map[[2]int]int) // (task, worker) -> runs the policy aborted
		for _, e := range tl.Schedule(pl).Entries {
			if e.Aborted {
				aborted[[2]int{e.TaskID, e.Worker}]++
			} else {
				finishedOn[e.TaskID] = e.Worker
			}
		}
		completed := 0
		for _, e := range rep.Trace.Entries {
			if !e.Aborted {
				completed++
				if e.Worker != finishedOn[e.TaskID] {
					t.Errorf("seed %d: task %d completed on worker %d, the policy finished it on %d", seed, e.TaskID, e.Worker, finishedOn[e.TaskID])
				}
				continue
			}
			key := [2]int{e.TaskID, e.Worker}
			if aborted[key] == 0 {
				t.Errorf("seed %d: task %d cancelled on worker %d, where the policy aborted no run of it", seed, e.TaskID, e.Worker)
			}
			aborted[key]--
		}
		if completed != g.Len() {
			t.Errorf("seed %d: %d successful runs, want %d", seed, completed, g.Len())
		}
		t.Logf("seed %d: %d spoliations", seed, rep.Spoliations)
	}
}
