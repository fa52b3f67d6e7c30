// Package runtime is a real-time task-based runtime system driven by the
// HeteroPrio scheduling policy — the "practical implementation in a
// runtime system" the paper's conclusion announces, in miniature. It
// executes task graphs of real Go closures on two pools of worker
// goroutines (the "CPU" and "GPU" classes of the model; on a laptop both
// are OS threads, with the class distinction carried by which kernel
// implementation a task runs — see the realcholesky example).
//
// Run makes no scheduling decision of its own. The policy is core.Live,
// HeteroPrio as the simulator runs it: ready tasks enter the two-ended
// acceleration-factor queue, GPU-class workers pull from the front,
// CPU-class workers from the back, and an idle worker with an empty queue
// spoliates a task running on the other class if its *estimated*
// completion would improve. Its clock is the measured time since the
// execution began, in seconds, the unit of the estimates. Run asks for a
// decision round at the start and after every run returns, finishing the
// run first if it completed. It raises the cancel flag of every run the
// policy aborted: spoliation is cooperative, the kernel abandons the run
// at its next poll. It sends each run the policy started to its worker
// once that goroutine is free and no other goroutine executes the task,
// so a thief restarts a task only after its victim has returned and the
// task's inputs are restored (Reset hook). Decisions use estimated
// durations; the trace records measured wall-clock times.
//
// Deciding as the simulator does has three consequences. A run whose
// flag was raised counts as aborted even if it returned completed: the
// policy has already restarted the task elsewhere. A victim's worker is
// free for the policy at the abort instant, and starts its next run once
// its goroutine returns. And Config.Observer receives the policy's own
// events, at decision times.
package runtime

import (
	"fmt"
	"time"

	"repro/internal/cancel"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Task is a unit of real work with per-class duration estimates.
type Task struct {
	// Name labels the task in traces.
	Name string
	// EstCPU and EstGPU are the estimated durations (seconds) on each
	// class; their ratio is the acceleration factor used by the policy.
	EstCPU, EstGPU float64
	// Run executes the task on the given class. It must poll flag and
	// return false promptly once cancelled (partial effects are allowed).
	// Returning an error aborts the whole execution.
	Run func(kind platform.Kind, flag *cancel.Flag) (completed bool, err error)
	// Prepare, if non-nil, is called (from the coordinator goroutine)
	// right before the task's first dispatch — typically to snapshot the
	// inputs the task mutates in place.
	Prepare func()
	// Reset, if non-nil, is called before every later dispatch, once the
	// aborted run has returned — typically to restore the Prepare
	// snapshot.
	Reset func()
}

// Graph is a DAG of runtime tasks.
type Graph struct {
	d     *dag.Graph
	tasks []Task
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{d: dag.New()} }

// Add appends a task and returns its ID.
func (g *Graph) Add(t Task) int {
	id := g.d.AddTask(platform.Task{
		Name:    t.Name,
		CPUTime: t.EstCPU,
		GPUTime: t.EstGPU,
	})
	g.tasks = append(g.tasks, t)
	return id
}

// AddDep declares that task u must complete before task v starts.
func (g *Graph) AddDep(u, v int) { g.d.AddEdge(u, v) }

// Len returns the number of tasks.
func (g *Graph) Len() int { return g.d.Len() }

// Config parameterizes an execution.
type Config struct {
	// CPUWorkers and GPUWorkers are the pool sizes (both classes are
	// goroutines; the class only selects queue end and estimates).
	CPUWorkers, GPUWorkers int
	// DisableSpoliation turns cooperative spoliation off.
	DisableSpoliation bool
	// UsePriorities assigns min-weight bottom levels as priorities and
	// uses them for tie-breaking, as in the paper's best configuration.
	UsePriorities bool
	// Clock is the time source for timestamps and spoliation estimates.
	// Nil means the wall clock; tests and replays inject a clock.Manual
	// so live runs observe deterministic timestamps.
	Clock clock.Clock
	// Observer, if non-nil, receives the policy's scheduling events, the
	// ones a simulated HeteroPrio run emits: queue entries, starts,
	// spoliations, completions, and after each round the idle workers and
	// the queue depth. Times are decision times, in seconds since the
	// execution began: when the coordinator learned of a completion and
	// decided, not when a goroutine started or returned a run (that is
	// Report.Trace). Events fire from the coordinator goroutine, in time
	// order.
	Observer obs.Observer
}

// Report is the outcome of an execution.
type Report struct {
	// Wall is the measured makespan.
	Wall time.Duration
	// Trace holds the measured runs (times in seconds from start),
	// including aborted (spoliated) attempts. Durations are measured, so
	// Trace must not be validated against the estimate instance.
	Trace *sim.Schedule
	// Spoliations is the number of aborted runs: the runs whose flag was
	// raised, whether or not they returned completed.
	Spoliations int
}

type job struct {
	id   int
	t    Task
	flag *cancel.Flag
}

type completion struct {
	worker     int
	id         int
	start, end time.Duration
	completed  bool
	err        error
}

// worker is the coordinator's view of one worker goroutine: the index in
// the policy's schedule of the run it executes, -1 while it is free, with
// that run's cancel flag, and the index of the run the policy started on
// it that waits to be sent, -1 if none.
type worker struct {
	exec, next int
	flag       *cancel.Flag
}

// Run executes the graph and blocks until every task has completed.
func Run(g *Graph, cfg Config) (*Report, error) {
	pl := platform.Platform{CPUs: cfg.CPUWorkers, GPUs: cfg.GPUWorkers}
	for id, t := range g.tasks {
		if t.Run == nil {
			return nil, fmt.Errorf("runtime: task %d (%s) has no Run function", id, t.Name)
		}
	}
	if cfg.UsePriorities {
		if _, err := g.d.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
			return nil, err
		}
	}
	lv, err := core.NewLive(g.d, pl, core.Options{
		DisableSpoliation: cfg.DisableSpoliation,
		UsePriorities:     cfg.UsePriorities,
		Observer:          cfg.Observer,
	})
	if err != nil {
		return nil, err
	}

	clk := cfg.Clock
	if clk == nil {
		clk = clock.Wall{}
	}
	epoch := clk.Now()
	now := func() float64 { return clk.Since(epoch).Seconds() }
	jobs := make([]chan job, pl.Workers())
	done := make(chan completion, pl.Workers())
	for w := 0; w < pl.Workers(); w++ {
		jobs[w] = make(chan job, 1)
		go func(w int, kind platform.Kind) {
			for j := range jobs[w] {
				start := clk.Since(epoch)
				completed, err := j.t.Run(kind, j.flag)
				done <- completion{
					worker: w, id: j.id,
					start: start, end: clk.Since(epoch),
					completed: completed, err: err,
				}
			}
		}(w, pl.KindOf(w))
	}
	defer func() {
		for _, ch := range jobs {
			close(ch)
		}
	}()

	k := lv.Kernel()
	workers := make([]worker, pl.Workers())
	for w := range workers {
		workers[w] = worker{exec: -1, next: -1}
	}
	// executing[id] is set while a goroutine executes task id; prepared[id]
	// once the task has been dispatched.
	executing := make([]bool, g.Len())
	prepared := make([]bool, g.Len())
	decided, inFlight := 0, 0
	trace := &sim.Schedule{Platform: pl}
	spoliations := 0

	// execute carries out the policy's decisions since its last call: it
	// raises the flag of every executing run the policy aborted, and
	// sends each run the policy started to its worker once that goroutine
	// is free and no other goroutine executes the task. A run aborted
	// before it could be sent is dropped.
	execute := func() {
		runs := k.Schedule().Entries
		for ; decided < len(runs); decided++ {
			workers[runs[decided].Worker].next = decided
		}
		for w := range workers {
			wk := &workers[w]
			if wk.exec >= 0 && runs[wk.exec].Aborted {
				wk.flag.Cancel()
			}
			if wk.next < 0 || wk.exec >= 0 || executing[runs[wk.next].TaskID] {
				continue
			}
			i := wk.next
			wk.next = -1
			if runs[i].Aborted {
				continue
			}
			id := runs[i].TaskID
			t := g.tasks[id]
			if !prepared[id] {
				if t.Prepare != nil {
					t.Prepare()
				}
				prepared[id] = true
			} else if t.Reset != nil {
				t.Reset()
			}
			wk.exec, wk.flag = i, &cancel.Flag{}
			executing[id] = true
			inFlight++
			jobs[w] <- job{id: id, t: t, flag: wk.flag}
		}
	}

	lv.Round(now())
	execute()
	for !lv.Done() {
		if inFlight == 0 {
			return nil, fmt.Errorf("runtime: stalled with no run in progress")
		}
		c := <-done
		wk := &workers[c.worker]
		run := k.Schedule().Entries[wk.exec]
		wk.exec = -1
		executing[c.id] = false
		inFlight--
		if c.err != nil {
			return nil, fmt.Errorf("runtime: task %d (%s): %w", c.id, g.tasks[c.id].Name, c.err)
		}
		if !c.completed && !run.Aborted {
			return nil, fmt.Errorf("runtime: task %d (%s) returned uncompleted without being cancelled", c.id, g.tasks[c.id].Name)
		}
		trace.Entries = append(trace.Entries, sim.Entry{
			TaskID: c.id, Worker: c.worker, Kind: run.Kind,
			Start: c.start.Seconds(), End: c.end.Seconds(),
			Aborted: run.Aborted, Spoliation: run.Spoliation,
		})
		t := now()
		if run.Aborted {
			spoliations++
		} else {
			lv.Finish(t, c.worker)
		}
		lv.Round(t)
		execute()
	}

	return &Report{
		Wall:        clk.Since(epoch),
		Trace:       trace,
		Spoliations: spoliations,
	}, nil
}
