package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
)

func task(id int, p, q float64) platform.Task {
	return platform.Task{ID: id, CPUTime: p, GPUTime: q}
}

func TestKernelStartComplete(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	k := NewKernel(pl)
	if k.NumBusy() != 0 || k.NextIdle(platform.CPU, 0) != 0 || k.NextIdle(platform.CPU, 1) != -1 {
		t.Fatal("fresh kernel state wrong")
	}
	k.Start(0, task(0, 5, 1), false) // CPU run, 5 units
	k.Start(1, task(1, 9, 2), false) // GPU run, 2 units
	if k.NumBusy() != 2 {
		t.Fatalf("NumBusy = %d, want 2", k.NumBusy())
	}
	if !k.Busy(0) || !k.Busy(1) {
		t.Fatal("both workers should be busy")
	}
	if got := k.NextCompletion(); got != 2 {
		t.Fatalf("NextCompletion = %v, want 2", got)
	}
	run, ok := k.CompleteNext()
	if !ok || run.Task.ID != 1 || k.Now != 2 {
		t.Fatalf("first completion = %+v at %v", run, k.Now)
	}
	run, ok = k.CompleteNext()
	if !ok || run.Task.ID != 0 || k.Now != 5 {
		t.Fatalf("second completion = %+v at %v", run, k.Now)
	}
	if _, ok := k.CompleteNext(); ok {
		t.Fatal("no third completion expected")
	}
	if math.IsInf(k.NextCompletion(), 1) != true {
		t.Fatal("NextCompletion on idle kernel should be +Inf")
	}
}

func TestKernelRunningAndRunOf(t *testing.T) {
	pl := platform.NewPlatform(2, 1)
	k := NewKernel(pl)
	k.Start(0, task(0, 3, 1), false)
	k.Start(2, task(1, 7, 4), true)
	runsOn := func(kind platform.Kind) []Running {
		var runs []Running
		lo, hi := pl.KindRange(kind)
		for w := lo; w < hi; w++ {
			if k.Busy(w) {
				runs = append(runs, k.RunOf(w))
			}
		}
		return runs
	}
	cpuRuns := runsOn(platform.CPU)
	if len(cpuRuns) != 1 || cpuRuns[0].Task.ID != 0 {
		t.Fatalf("CPU runs = %v", cpuRuns)
	}
	gpuRuns := runsOn(platform.GPU)
	if len(gpuRuns) != 1 || !gpuRuns[0].Spoliation {
		t.Fatalf("GPU runs = %v", gpuRuns)
	}
	if k.RunOf(2).End != 4 {
		t.Fatalf("RunOf(2).End = %v, want 4", k.RunOf(2).End)
	}
	if w := k.NextIdle(platform.CPU, 0); w != 1 || k.NextIdle(platform.CPU, w+1) != -1 {
		t.Fatalf("idle CPUs start at %d, want only worker 1", w)
	}
	if w := k.NextIdle(platform.GPU, 0); w != -1 {
		t.Fatalf("NextIdle(GPU, 0) = %d, want -1", w)
	}
}

func TestKernelAbort(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	k := NewKernel(pl)
	k.Start(0, task(0, 10, 1), false)
	// GPU finishes something at t=2 then spoliates the CPU task.
	k.Start(1, task(1, 9, 2), false)
	k.CompleteNext() // GPU done at 2
	victim := k.Abort(0)
	if victim.ID != 0 || k.Busy(0) {
		t.Fatal("abort did not free worker 0")
	}
	k.Start(1, victim, true)
	run, ok := k.CompleteNext()
	if !ok || run.Task.ID != 0 || k.Now != 3 {
		t.Fatalf("spoliated run completed %+v at %v, want task 0 at 3", run, k.Now)
	}
	s := k.Schedule()
	if s.SpoliationCount() != 1 {
		t.Fatalf("SpoliationCount = %d, want 1", s.SpoliationCount())
	}
	aborted := s.Entries[0]
	if !aborted.Aborted || aborted.End != 2 {
		t.Fatalf("aborted entry = %+v", aborted)
	}
	in := platform.Instance{task(0, 10, 1), task(1, 9, 2)}
	if err := s.Validate(in, nil); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	if ms := s.Makespan(); ms != 3 {
		t.Fatalf("makespan = %v, want 3", ms)
	}
}

// TestKernelFinish: Finish ends a run at Now whatever its duration, an
// unbounded one included, and takes a bounded one out of the completion
// heap.
func TestKernelFinish(t *testing.T) {
	pl := platform.NewPlatform(2, 1)
	k := NewKernel(pl)
	k.StartTimed(0, task(0, 4, 1), math.Inf(1), false)
	k.Start(1, task(1, 3, 1), false)
	k.Start(2, task(2, 9, 5), false)
	if got := k.NextCompletion(); got != 3 {
		t.Fatalf("NextCompletion = %v, want 3 (the unbounded run never completes)", got)
	}
	k.Now = 2
	if run := k.Finish(1); run.Task.ID != 1 || run.Start != 0 || run.End != 2 || k.Busy(1) {
		t.Fatalf("Finish(1) = %+v, busy %v", run, k.Busy(1))
	}
	if got := k.NextCompletion(); got != 5 {
		t.Fatalf("NextCompletion after Finish = %v, want 5", got)
	}
	k.Now = 4.5
	if run := k.Finish(0); run.End != 4.5 || run.EstEnd != 4 {
		t.Fatalf("Finish(0) = %+v, want End 4.5 and EstEnd 4", run)
	}
	run, ok := k.CompleteNext()
	if !ok || run.Task.ID != 2 || k.Now != 5 || k.NumBusy() != 0 {
		t.Fatalf("last completion = %+v at %v, %d busy", run, k.Now, k.NumBusy())
	}
	for i, want := range []float64{4.5, 2, 5} {
		if e := k.Schedule().Entries[i]; e.End != want || e.Aborted {
			t.Errorf("entry %d = %+v, want End %v", i, e, want)
		}
	}
}

func TestKernelPanics(t *testing.T) {
	pl := platform.NewPlatform(1, 0)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	k := NewKernel(pl)
	mustPanic("RunOf idle", func() { k.RunOf(0) })
	mustPanic("Abort idle", func() { k.Abort(0) })
	mustPanic("Finish idle", func() { k.Finish(0) })
	k.Start(0, task(0, 1, 1), false)
	mustPanic("double start", func() { k.Start(0, task(1, 1, 1), false) })
}

func buildSchedule() (*Schedule, platform.Instance) {
	pl := platform.NewPlatform(1, 1)
	in := platform.Instance{task(0, 4, 1), task(1, 2, 1)}
	s := &Schedule{Platform: pl, Entries: []Entry{
		{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 1},
		{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
	}}
	return s, in
}

func TestScheduleMetrics(t *testing.T) {
	s, in := buildSchedule()
	if ms := s.Makespan(); ms != 2 {
		t.Fatalf("makespan = %v, want 2", ms)
	}
	if got := s.BusyTime(platform.CPU); got != 2 {
		t.Errorf("BusyTime(CPU) = %v, want 2", got)
	}
	if got := s.IdleTime(platform.GPU); got != 1 {
		t.Errorf("IdleTime(GPU) = %v, want 1", got)
	}
	if got := s.EquivalentAccel(in, platform.GPU); got != 4 {
		t.Errorf("EquivalentAccel(GPU) = %v, want 4", got)
	}
	if got := s.EquivalentAccel(in, platform.CPU); got != 2 {
		t.Errorf("EquivalentAccel(CPU) = %v, want 2", got)
	}
	if got := s.NormalizedIdleTime(platform.GPU, 2); got != 0.5 {
		t.Errorf("NormalizedIdleTime = %v, want 0.5", got)
	}
	if !math.IsNaN(s.NormalizedIdleTime(platform.GPU, 0)) {
		t.Error("NormalizedIdleTime with zero usage should be NaN")
	}
	if n := len(s.SuccessfulEntries()); n != 2 {
		t.Errorf("SuccessfulEntries = %d, want 2", n)
	}
}

func TestValidateCatchesBadSchedules(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	in := platform.Instance{task(0, 4, 1), task(1, 2, 1)}
	validate := func(s *Schedule, in platform.Instance) error { return s.Validate(in, nil) }
	relaxed := func(s *Schedule, in platform.Instance) error { return s.ValidateRelaxed(in, nil) }
	// Under this duration model every run takes three times its nominal
	// class time.
	timed := func(s *Schedule, in platform.Instance) error {
		return s.ValidateTimed(in, nil, func(t platform.Task, k platform.Kind) float64 { return 3 * t.Time(k) })
	}
	cases := []struct {
		name    string
		in      platform.Instance // nil means in
		check   func(*Schedule, platform.Instance) error
		entries []Entry
		want    string // "" means valid
	}{
		{"bad worker", nil, validate, []Entry{{TaskID: 0, Worker: 9, Kind: platform.GPU, Start: 0, End: 1}},
			"sim: entry 0: worker 9 out of range"},
		{"kind mismatch", nil, validate, []Entry{{TaskID: 0, Worker: 0, Kind: platform.GPU, Start: 0, End: 1}},
			"sim: entry 0: kind GPU does not match worker 0 (CPU)"},
		{"unknown task", nil, validate, []Entry{{TaskID: 7, Worker: 1, Kind: platform.GPU, Start: 0, End: 1}},
			"sim: entry 0: unknown task 7"},
		{"wrong duration", nil, validate, []Entry{
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 3},
			{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
		}, "sim: entry 0: task 0 duration 3, want 1 on GPU"},
		{"missing task", nil, validate, []Entry{{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 1}},
			"sim: task 1 has no successful run"},
		{"double success", nil, validate, []Entry{
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 1},
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 1, End: 2},
			{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
		}, "sim: task 0 has two successful runs ({0 1 GPU 0 1 false false} and {0 1 GPU 1 2 false false})"},
		{"overlap", nil, validate, []Entry{
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 1},
			{TaskID: 1, Worker: 1, Kind: platform.GPU, Start: 0.5, End: 1.5},
		}, "sim: worker 1: overlapping runs of tasks 0 and 1"},
		{"negative start", nil, validate, []Entry{
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: -1, End: 0},
			{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
		}, "sim: entry 0: bad interval [-1,0]"},
		{"aborted too long", nil, validate, []Entry{
			{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 6, Aborted: true},
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 6, End: 7},
			{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 6, End: 8},
		}, "sim: entry 0: aborted run of task 0 longer (6) than full time 4"},
		{"aborted after success", nil, validate, []Entry{
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 1},
			{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 2, Aborted: true},
			{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 2, End: 4},
		}, "sim: task 0 aborted at 2 after its successful completion 1"},
		// Sparse IDs go through the map; 3 is inside [0, len(in)) but
		// absent, 9 is past it.
		{"sparse IDs", platform.Instance{task(1000, 4, 1), task(2, 2, 1)}, validate, []Entry{
			{TaskID: 1000, Worker: 1, Kind: platform.GPU, Start: 0, End: 1},
			{TaskID: 2, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
		}, ""},
		{"sparse unknown in range", platform.Instance{task(1000, 4, 1), task(2, 2, 1)}, validate, []Entry{
			{TaskID: 1, Worker: 1, Kind: platform.GPU, Start: 0, End: 1},
		}, "sim: entry 0: unknown task 1"},
		{"sparse unknown past range", platform.Instance{task(1000, 4, 1), task(2, 2, 1)}, validate, []Entry{
			{TaskID: 1000, Worker: 1, Kind: platform.GPU, Start: 0, End: 1},
			{TaskID: 9, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
		}, "sim: entry 1: unknown task 9"},
		{"negative IDs", platform.Instance{task(-5, 4, 1), task(-1, 2, 1)}, validate, []Entry{
			{TaskID: -5, Worker: 1, Kind: platform.GPU, Start: 0, End: 1},
			{TaskID: -1, Worker: 0, Kind: platform.CPU, Start: 0, End: 3},
		}, "sim: entry 1: task -1 duration 3, want 2 on CPU"},
		{"negative ID missing", platform.Instance{task(-5, 4, 1), task(-1, 2, 1)}, validate, []Entry{
			{TaskID: -1, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
		}, "sim: task -5 has no successful run"},
		// With duplicate IDs the last task wins, as in Instance.ByID.
		{"duplicate ID last wins", platform.Instance{task(0, 4, 1), task(0, 2, 3)}, validate, []Entry{
			{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
		}, ""},
		{"duplicate ID first loses", platform.Instance{task(0, 4, 1), task(0, 2, 3)}, validate, []Entry{
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 1},
		}, "sim: entry 0: task 0 duration 1, want 3 on GPU"},
		// A successful run may run long under ValidateRelaxed, never short.
		{"relaxed longer", nil, relaxed, []Entry{
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 2.5},
			{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
		}, ""},
		{"relaxed shorter", nil, relaxed, []Entry{
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 0.5},
			{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
		}, "sim: entry 0: task 0 duration 0.5, want 1 on GPU"},
		// ValidateTimed checks durations, and aborted runs, against the
		// model's times; the profit rule keeps the nominal ones.
		{"timed", nil, timed, []Entry{
			{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 1, Aborted: true},
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 1, End: 4, Spoliation: true},
			{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 1, End: 7},
		}, ""},
		{"timed nominal duration", nil, timed, []Entry{
			{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0, End: 3},
			{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 0, End: 2},
		}, "sim: entry 1: task 1 duration 2, want 6 on CPU"},
		{"timed aborted too long", nil, timed, []Entry{
			{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 13, Aborted: true},
		}, "sim: entry 0: aborted run of task 0 longer (13) than full time 12"},
	}
	for _, c := range cases {
		s := &Schedule{Platform: pl, Entries: c.entries}
		cin := c.in
		if cin == nil {
			cin = in
		}
		err := c.check(s, cin)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: valid schedule rejected: %v", c.name, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	// With several tasks missing, the error names the first of in, on
	// every call.
	three := platform.Instance{task(2, 1, 1), task(0, 1, 1), task(1, 1, 1)}
	s := &Schedule{Platform: pl, Entries: []Entry{{TaskID: 1, Worker: 0, Kind: platform.CPU, Start: 0, End: 1}}}
	for i := 0; i < 20; i++ {
		if err := s.Validate(three, nil); err == nil || err.Error() != "sim: task 2 has no successful run" {
			t.Fatalf("call %d: error %v, want task 2 named first", i, err)
		}
	}
}

func TestValidateSpoliationProfit(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	// Profitable spoliation: victim would finish on CPU at 4, the GPU
	// restart at 0.5 finishes at 1.5.
	good := &Schedule{Platform: pl, Entries: []Entry{
		{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 0.5, Aborted: true},
		{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0.5, End: 1.5, Spoliation: true},
	}}
	if err := good.Validate(platform.Instance{task(0, 4, 1)}, nil); err != nil {
		t.Fatalf("profitable spoliation rejected: %v", err)
	}
	cases := []struct {
		name string
		in   platform.Instance
		s    []Entry
		want string
	}{
		{
			// Restart at 0.5 would finish at 4.5, the victim at 1.
			"unprofitable", platform.Instance{task(0, 1, 4)},
			[]Entry{
				{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 0.5, Aborted: true},
				{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0.5, End: 4.5, Spoliation: true},
			},
			"without profit",
		},
		{
			// Both completions land at exactly 2; the rule is strict.
			"equal completion", platform.Instance{task(0, 2, 1.5)},
			[]Entry{
				{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 0.5, Aborted: true},
				{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0.5, End: 2, Spoliation: true},
			},
			"without profit",
		},
		{
			// The later GPU run is not flagged as a spoliation restart.
			"unflagged restart", platform.Instance{task(0, 4, 1)},
			[]Entry{
				{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 0.5, Aborted: true},
				{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 0.5, End: 1.5},
			},
			"no spoliation restart",
		},
		{
			// A restart exists but not at the abort instant.
			"late restart", platform.Instance{task(0, 4, 1)},
			[]Entry{
				{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 0.5, Aborted: true},
				{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 1, End: 2, Spoliation: true},
			},
			"no spoliation restart",
		},
	}
	for _, c := range cases {
		s := &Schedule{Platform: pl, Entries: c.s}
		err := s.Validate(c.in, nil)
		if err == nil {
			t.Errorf("%s: expected validation error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValidateDAGDependencies(t *testing.T) {
	g := dag.New()
	a := g.AddTask(task(0, 1, 1))
	b := g.AddTask(task(1, 1, 1))
	g.AddEdge(a, b)
	pl := platform.NewPlatform(2, 0)
	ok := &Schedule{Platform: pl, Entries: []Entry{
		{TaskID: a, Worker: 0, Kind: platform.CPU, Start: 0, End: 1},
		{TaskID: b, Worker: 1, Kind: platform.CPU, Start: 1, End: 2},
	}}
	if err := ok.Validate(g.Tasks(), g); err != nil {
		t.Fatalf("valid DAG schedule rejected: %v", err)
	}
	bad := &Schedule{Platform: pl, Entries: []Entry{
		{TaskID: a, Worker: 0, Kind: platform.CPU, Start: 0, End: 1},
		{TaskID: b, Worker: 1, Kind: platform.CPU, Start: 0.5, End: 1.5},
	}}
	if err := bad.Validate(g.Tasks(), g); err == nil {
		t.Error("dependency violation not detected")
	}
	// A task of in that the graph lacks is an error, not an index panic.
	in := append(g.Tasks().Clone(), task(7, 1, 1))
	outside := &Schedule{Platform: pl, Entries: []Entry{
		{TaskID: a, Worker: 0, Kind: platform.CPU, Start: 0, End: 1},
		{TaskID: b, Worker: 1, Kind: platform.CPU, Start: 1, End: 2},
		{TaskID: 7, Worker: 0, Kind: platform.CPU, Start: 2, End: 3},
	}}
	if err := outside.Validate(in, g); err == nil || err.Error() != "sim: entry 2: task 7 is not in the graph" {
		t.Errorf("task outside the graph: error %v", err)
	}
}

func TestGanttAndCSV(t *testing.T) {
	s, _ := buildSchedule()
	gantt := s.Gantt(40)
	if !strings.Contains(gantt, "CPU0") || !strings.Contains(gantt, "GPU0") {
		t.Errorf("gantt missing worker rows:\n%s", gantt)
	}
	empty := &Schedule{Platform: platform.NewPlatform(1, 0)}
	if !strings.Contains(empty.Gantt(5), "empty") {
		t.Error("empty gantt should say so")
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "task,worker,kind") || !strings.Contains(csv, "0,1,GPU") {
		t.Errorf("csv wrong:\n%s", csv)
	}
}

func TestAssignedTasksSkipsAbortedAndUnknown(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	in := platform.Instance{task(0, 4, 1)}
	s := &Schedule{Platform: pl, Entries: []Entry{
		{TaskID: 0, Worker: 0, Kind: platform.CPU, Start: 0, End: 2, Aborted: true},
		{TaskID: 0, Worker: 1, Kind: platform.GPU, Start: 2, End: 3, Spoliation: true},
		{TaskID: 5, Worker: 1, Kind: platform.GPU, Start: 3, End: 4}, // not in instance
	}}
	got := s.AssignedTasks(in)
	if len(got[platform.GPU]) != 1 || len(got[platform.CPU]) != 0 {
		t.Errorf("AssignedTasks = %v", got)
	}
}
