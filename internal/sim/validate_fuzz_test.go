package sim_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// tol is Schedule.validate's tolerance.
const tol = 1e-6

// fuzzDeltas are the time shifts a mutation draws from: inside and just
// outside the validator's tolerance, and fractions and multiples of a run.
var fuzzDeltas = [...]float64{tol / 2, 2 * tol, 1e-3, 0.25, 1, 4, 16}

// validateCase is a decoded fuzz input: a real schedule, the instance and
// graph it claims to execute, and the duration model ValidateTimed gets.
type validateCase struct {
	s   *sim.Schedule
	in  platform.Instance
	g   *dag.Graph
	dur func(platform.Task, platform.Kind) float64
}

// jitter is the timed family's actual-duration model. It reads only a
// task's times, so it survives the relabelling of task IDs.
func jitter(t platform.Task, k platform.Kind) float64 {
	return t.Time(k) * (1 + math.Mod(t.CPUTime+t.GPUTime, 0.5))
}

// buildValidateCase decodes a fuzz input into a schedule made by a real
// scheduler. src%6 picks the scheduler: HeteroPrio on independent tasks
// with nominal (0) or jittered (1) durations, CLB2C on independent tasks
// (2), HeteroPrio on a DAG without (3) or with (4) a transfer delay, and
// DualHP on a DAG (5). src/6%5 picks how the instance handed to the
// validator lists the tasks: as scheduled (0), shuffled (1), with sparse
// IDs 3·id, most of them past len(in) (2), with negative IDs (3), or with
// a task listed twice, the copy's times doubled (4). DAG tasks keep their
// graph IDs, so modes 2-4 shuffle them instead. shape gives the platform
// (0-3 CPUs, 0-2 GPUs) and the size; seed draws the tasks.
func buildValidateCase(t *testing.T, src, shape uint8, seed int64) validateCase {
	t.Helper()
	cpus, gpus := int(shape%4), int(shape/4%3)
	if cpus+gpus == 0 {
		cpus = 1
	}
	pl := platform.NewPlatform(cpus, gpus)
	size := int(shape / 12)
	rng := rand.New(rand.NewSource(seed))
	c := validateCase{dur: platform.Task.Time}
	var err error
	switch family := src % 6; family {
	case 0, 1, 2:
		c.in = workloads.LogNormalAccelInstance(2+size, math.Ln2, 1.5, rng)
		var res core.Result
		switch family {
		case 0:
			res, err = core.ScheduleIndependent(c.in, pl, core.Options{})
		case 1:
			c.dur = jitter
			res, err = core.ScheduleIndependent(c.in, pl, core.Options{ActualTime: jitter})
		case 2:
			res.Schedule, err = sched.CLB2CIndependent(c.in, pl)
		}
		c.s = res.Schedule
	default:
		c.g = dag.RandomLayered(dag.RandomLayeredConfig{
			Layers: 2 + size%5, WidthMin: 1, WidthMax: 1 + size/5%4, EdgeProb: 0.5, SkipProb: 0.2,
			CPUTimeMin: 1, CPUTimeMax: 20, AccelMin: 0.2, AccelMax: 20,
		}, rng)
		c.in = c.g.Tasks()
		if _, err := c.g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
			t.Fatal(err)
		}
		var res core.Result
		switch family {
		case 3:
			res, err = core.ScheduleDAG(c.g, pl, core.Options{UsePriorities: true})
		case 4:
			res, err = core.ScheduleDAG(c.g, pl, core.Options{UsePriorities: true, TransferDelay: 0.5})
		case 5:
			res.Schedule, err = sched.DualHPDAG(c.g, pl, sched.RankMin)
		}
		c.s = res.Schedule
	}
	if err != nil {
		t.Fatal(err)
	}
	c.in = c.in.Clone()
	mode := src / 6 % 5
	if c.g != nil && mode > 1 {
		mode = 1
	}
	switch mode {
	case 1:
		rng.Shuffle(len(c.in), func(i, j int) { c.in[i], c.in[j] = c.in[j], c.in[i] })
	case 2, 3:
		relabel := func(id int) int { return 3 * id }
		if mode == 3 {
			relabel = func(id int) int { return -1 - 2*id }
		}
		for i := range c.in {
			c.in[i].ID = relabel(c.in[i].ID)
		}
		for i := range c.s.Entries {
			c.s.Entries[i].TaskID = relabel(c.s.Entries[i].TaskID)
		}
	case 4:
		dup := c.in[rng.Intn(len(c.in))]
		dup.CPUTime, dup.GPUTime = 2*dup.CPUTime, 2*dup.GPUTime
		c.in = slices.Insert(c.in, rng.Intn(len(c.in)+1), dup)
	}
	return c
}

// mutate applies up to three mutations to the schedule, four bytes each:
// an operation, an entry index, an argument and a time shift (fuzzDeltas,
// negated when the top bit is set). The operations shift a run's start,
// its end or both, flip Aborted or Spoliation, move a run to another
// worker of either class, drop a run, insert a copy of a run at another
// position, give a run a task ID the instance lacks, or, on a DAG, start a
// run before one of its task's predecessors completes.
func mutate(c *validateCase, muts []byte) {
	es := c.s.Entries
	for n := 0; n < 3 && len(muts) >= 4 && len(es) > 0; n, muts = n+1, muts[4:] {
		i, arg := int(muts[1])%len(es), int(muts[2])
		d := fuzzDeltas[int(muts[3]&0x7f)%len(fuzzDeltas)]
		if muts[3]&0x80 != 0 {
			d = -d
		}
		e := &es[i]
		switch muts[0] % 10 {
		case 0:
			e.Start += d
		case 1:
			e.End += d
		case 2:
			e.Start += d
			e.End += d
		case 3:
			e.Aborted = !e.Aborted
		case 4:
			e.Spoliation = !e.Spoliation
		case 5:
			e.Worker = arg % c.s.Platform.Workers()
			e.Kind = c.s.Platform.KindOf(e.Worker)
		case 6:
			es = slices.Delete(es, i, i+1)
		case 7:
			es = slices.Insert(es, arg%(len(es)+1), *e)
		case 8:
			e.TaskID = unknownID(c.in, arg)
		case 9:
			startBeforePred(c.g, es, i, arg, math.Abs(d))
		}
	}
	c.s.Entries = es
}

// unknownID returns a task ID the instance lacks: the smallest absent
// non-negative ID, one past the largest or one below the smallest.
func unknownID(in platform.Instance, arg int) int {
	ids := make(map[int]bool, len(in))
	lo, hi := 0, 0
	for _, t := range in {
		ids[t.ID] = true
		lo, hi = min(lo, t.ID), max(hi, t.ID)
	}
	switch arg % 3 {
	case 0:
		id := 0
		for ids[id] {
			id++
		}
		return id
	case 1:
		return hi + 1
	default:
		return lo - 1
	}
}

// startBeforePred moves run i to start d before the successful completion
// of one of its task's predecessors, keeping its length. Without a DAG or
// a predecessor, it moves the run d earlier.
func startBeforePred(g *dag.Graph, es []sim.Entry, i, arg int, d float64) {
	e := &es[i]
	length := e.End - e.Start
	start := e.Start - d
	if g != nil && e.TaskID >= 0 && e.TaskID < g.Len() {
		if preds := g.Preds(e.TaskID); len(preds) > 0 {
			p := preds[arg%len(preds)]
			for _, r := range es {
				if r.TaskID == p && !r.Aborted {
					start = r.End - d
					break
				}
			}
		}
	}
	e.Start, e.End = start, start+length
}

// validatePhase names the phase of validation that rejected a schedule.
func validatePhase(err error) string {
	if err == nil {
		return "valid"
	}
	msg := err.Error()
	for _, p := range []struct{ sub, phase string }{
		{"has no successful run", "missing"},
		{"after its successful completion", "aborted-late"},
		{"no spoliation restart", "profit"},
		{"without profit", "profit"},
		{"overlapping runs", "overlap"},
		{"before predecessor", "dag"},
		{"is not in the graph", "dag"},
	} {
		if strings.Contains(msg, p.sub) {
			return p.phase
		}
	}
	return "entry"
}

// tiedStarts reports whether some worker has two runs with the same start,
// one of them no longer than tol. It is the one input on which
// refValidate's overlap verdict depends on how sort.Slice orders equal
// starts.
func tiedStarts(s *sim.Schedule) bool {
	for i, a := range s.Entries {
		for _, b := range s.Entries[i+1:] {
			if a.Worker == b.Worker && a.Start == b.Start && (a.Start >= a.End-tol || b.Start >= b.End-tol) {
				return true
			}
		}
	}
	return false
}

// checkAgainstReference runs Validate, ValidateTimed and ValidateRelaxed
// and refValidate with the same arguments, and requires the same verdict,
// the same phase, the same message (except in the missing-run and overlap
// phases, where the reference's message depends on map order), the same
// number of calls to the duration model, and an unchanged schedule.
func checkAgainstReference(t *testing.T, c validateCase) {
	t.Helper()
	before := slices.Clone(c.s.Entries)
	tied := tiedStarts(c.s)
	var gotCalls, wantCalls int
	counted := func(n *int) func(platform.Task, platform.Kind) float64 {
		return func(tk platform.Task, k platform.Kind) float64 {
			*n++
			return c.dur(tk, k)
		}
	}
	for _, m := range []struct {
		name      string
		got, want func() error
	}{
		{"Validate",
			func() error { return c.s.Validate(c.in, c.g) },
			func() error { return refValidate(c.s, c.in, c.g, nil, false) }},
		{"ValidateTimed",
			func() error { return c.s.ValidateTimed(c.in, c.g, counted(&gotCalls)) },
			func() error { return refValidate(c.s, c.in, c.g, counted(&wantCalls), false) }},
		{"ValidateRelaxed",
			func() error { return c.s.ValidateRelaxed(c.in, c.g) },
			func() error { return refValidate(c.s, c.in, c.g, nil, true) }},
	} {
		got, want := m.got(), m.want()
		gp, wp := validatePhase(got), validatePhase(want)
		if tied && (gp == "overlap" || wp == "overlap") {
			continue
		}
		if gp != wp {
			t.Fatalf("%s: %v (phase %s), reference %v (phase %s)", m.name, got, gp, want, wp)
		}
		if got != nil && gp != "missing" && gp != "overlap" && got.Error() != want.Error() {
			t.Fatalf("%s: %q, reference %q", m.name, got, want)
		}
	}
	if gotCalls != wantCalls {
		t.Fatalf("ValidateTimed called the duration model %d times, reference %d", gotCalls, wantCalls)
	}
	if !slices.Equal(before, c.s.Entries) {
		t.Fatal("validation changed the schedule")
	}
}

// FuzzValidateMatchesReference holds Schedule.validate to refValidate on
// real schedules (buildValidateCase) with up to three mutations (mutate).
func FuzzValidateMatchesReference(f *testing.F) {
	// A late restart: HeteroPrio's restart of the task aborted at entry
	// 21 moves 0.25 later, so no restart answers the abort.
	f.Add(uint8(0), uint8(250), int64(2), []byte{2, 22, 0, 3})
	// A task spoliated twice: a copy of that restart goes in after it and
	// the original is flagged aborted, so the task's chain holds two
	// restarts and the second abort has none at its instant.
	f.Add(uint8(0), uint8(250), int64(2), []byte{7, 22, 23, 0, 3, 22, 0, 0})
	// An unsorted worker: a DAG run moves 4 earlier, ahead of its
	// worker's first run, so the worker's entries are out of start order
	// but do not overlap (the run now starts before a predecessor ends).
	f.Add(uint8(3), uint8(236), int64(3), []byte{2, 9, 0, 133})
	// A valid HeteroPrio schedule with spoliations, on sparse IDs (3·id),
	// and the same on negative IDs.
	f.Add(uint8(12), uint8(250), int64(2), []byte{})
	f.Add(uint8(18), uint8(250), int64(2), []byte{})
	// A DAG run started before its predecessor, under the transfer
	// delay, and a DualHP DAG schedule whose run moves to another worker.
	f.Add(uint8(4), uint8(236), int64(3), []byte{9, 9, 0, 3})
	f.Add(uint8(5), uint8(236), int64(3), []byte{5, 4, 1, 0})
	f.Fuzz(func(t *testing.T, src, shape uint8, seed int64, muts []byte) {
		c := buildValidateCase(t, src, shape, seed)
		mutate(&c, muts)
		checkAgainstReference(t, c)
	})
}

// TestEquivalentAccelMatchesAssignedTasks holds EquivalentAccel's sums to
// the instance AssignedTasks builds, bit for bit, on a seeded corpus of
// fuzz cases: unknown tasks, duplicate IDs and aborted runs included.
func TestEquivalentAccelMatchesAssignedTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	muts := make([]byte, 12)
	for i := 0; i < 400; i++ {
		c := buildValidateCase(t, uint8(rng.Intn(256)), uint8(rng.Intn(256)), rng.Int63())
		rng.Read(muts)
		mutate(&c, muts)
		for _, k := range []platform.Kind{platform.CPU, platform.GPU} {
			got, want := c.s.EquivalentAccel(c.in, k), c.s.AssignedTasks(c.in)[k].EquivalentAccel()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d: EquivalentAccel(%v) = %v, AssignedTasks gives %v", i, k, got, want)
			}
		}
	}
}
