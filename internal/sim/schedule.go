// Package sim provides the discrete-event simulation substrate shared by
// all schedulers: a worker kernel that advances virtual time, the event
// loop (Run) that drives a scheduling policy on it, a schedule recorder
// that keeps every execution attempt (including runs aborted by
// spoliation), schedule validation, and the metrics used in the paper's
// evaluation (makespan, per-class idle time with aborted work counted as
// idle, and equivalent acceleration factors).
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Entry records one execution attempt of a task on a worker.
type Entry struct {
	TaskID int
	Worker int
	Kind   platform.Kind
	Start  float64
	End    float64
	// Aborted marks a run killed by spoliation at time End; its work is
	// lost and the task runs again elsewhere.
	Aborted bool
	// Spoliation marks a run that was started by spoliating the task from
	// the other resource class.
	Spoliation bool
}

// Duration returns End - Start.
func (e Entry) Duration() float64 { return e.End - e.Start }

// Schedule is the full trace of a simulation run.
type Schedule struct {
	Platform platform.Platform
	Entries  []Entry
}

// Makespan returns the completion time of the last successful run.
func (s *Schedule) Makespan() float64 {
	var ms float64
	for _, e := range s.Entries {
		if !e.Aborted {
			ms = math.Max(ms, e.End)
		}
	}
	return ms
}

// SuccessfulEntries returns the non-aborted entries.
func (s *Schedule) SuccessfulEntries() []Entry {
	out := make([]Entry, 0, len(s.Entries))
	for _, e := range s.Entries {
		if !e.Aborted {
			out = append(out, e)
		}
	}
	return out
}

// SpoliationCount returns the number of aborted runs.
func (s *Schedule) SpoliationCount() int {
	var c int
	for _, e := range s.Entries {
		if e.Aborted {
			c++
		}
	}
	return c
}

// AssignedTasks returns, for each resource class, the tasks whose
// successful run executed on that class.
func (s *Schedule) AssignedTasks(in platform.Instance) map[platform.Kind]platform.Instance {
	byID := in.ByID()
	out := map[platform.Kind]platform.Instance{}
	for _, e := range s.Entries {
		if e.Aborted {
			continue
		}
		t, ok := byID[e.TaskID]
		if !ok {
			continue
		}
		out[e.Kind] = append(out[e.Kind], t)
	}
	return out
}

// EquivalentAccel returns the acceleration factor of the "equivalent task"
// formed by all tasks successfully executed on class k (Figure 8). NaN if
// the class executed nothing.
func (s *Schedule) EquivalentAccel(in platform.Instance, k platform.Kind) float64 {
	// The sums run in entry order, the order AssignedTasks lists the
	// class's tasks in, so the ratio is bit-identical to
	// AssignedTasks(in)[k].EquivalentAccel().
	rows := newTaskRows(in)
	var p, q float64
	n := 0
	for i := range s.Entries {
		e := &s.Entries[i]
		if e.Aborted || e.Kind != k {
			continue
		}
		if r := rows.row(e.TaskID); r >= 0 {
			p += in[r].CPUTime
			q += in[r].GPUTime
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return p / q
}

// BusyTime returns the total successful processing time on class k. Aborted
// work is excluded (the paper counts it as idle time).
func (s *Schedule) BusyTime(k platform.Kind) float64 {
	var b float64
	for _, e := range s.Entries {
		if !e.Aborted && e.Kind == k {
			b += e.Duration()
		}
	}
	return b
}

// IdleTime returns the idle time on class k over the schedule horizon
// [0, makespan]: workers(k) * makespan - successful work on k. Work spent
// on aborted runs counts as idle, matching the paper's footnote in
// Section 6.2.
func (s *Schedule) IdleTime(k platform.Kind) float64 {
	horizon := s.Makespan()
	return float64(s.Platform.Count(k))*horizon - s.BusyTime(k)
}

// NormalizedIdleTime returns IdleTime(k) divided by usage, where usage is
// the amount of class-k resource consumed by the lower-bound solution
// (Figure 9's normalization).
func (s *Schedule) NormalizedIdleTime(k platform.Kind, usage float64) float64 {
	if usage <= 0 {
		return math.NaN()
	}
	return s.IdleTime(k) / usage
}

// Validate checks the structural invariants of the schedule against the
// instance it claims to execute and an optional DAG:
//   - every worker index is valid and entry kinds match the worker class;
//   - per-worker runs do not overlap;
//   - every task has exactly one successful run with the exact processing
//     time of its class, and every aborted run is shorter than or equal to
//     that class time and ends no later than the successful completion;
//   - every aborted run has a spoliation restart at its abort time whose
//     estimated completion strictly improves on the victim's (Algorithm 1's
//     spoliation-profit rule: an idle worker may only steal a task it
//     would finish strictly earlier);
//   - with a DAG, every entry's task is in the graph and every run starts
//     at or after the completion of all the task's predecessors (their
//     successful runs).
//
// Its cost is linear in the entries, the tasks and the workers, plus the
// predecessor lists of the entries' tasks with a DAG, a walk of each
// aborted task's own spoliation restarts, and a sort of each worker whose
// runs are not already in start order. It allocates five tables, plus a
// map when some task ID falls outside [0, len(in)). Where a check fails
// more than once it reports the first failure: the earliest entry, the
// first task of in without a successful run, the lowest worker with
// overlapping runs.
func (s *Schedule) Validate(in platform.Instance, g *dag.Graph) error {
	return s.ValidateTimed(in, g, nil)
}

// ValidateTimed is Validate with an explicit duration model: dur gives the
// actual execution time of a task on a class (nil means the nominal
// processing times). Used to validate schedules produced under estimation
// noise, where runs take their actual — not nominal — durations.
func (s *Schedule) ValidateTimed(in platform.Instance, g *dag.Graph, dur func(t platform.Task, k platform.Kind) float64) error {
	return s.validate(in, g, dur, false)
}

// ValidateRelaxed checks every structural invariant except exact run
// durations: a successful run may take *longer* than the nominal class
// time (e.g. it waited for a data transfer while occupying the worker)
// but never less. Used by the transfer-delay extension.
func (s *Schedule) ValidateRelaxed(in platform.Instance, g *dag.Graph) error {
	return s.validate(in, g, nil, true)
}

// taskRows maps a task ID to its row in an instance: the index of the
// last task with that ID, the one Instance.ByID keeps. IDs in
// [0, len(in)) index a table; other IDs go through a map, built only
// when the instance has one.
type taskRows struct {
	dense  []int // ID -> row+1, 0 when no task has the ID
	sparse map[int]int
}

func newTaskRows(in platform.Instance) taskRows {
	r := taskRows{dense: make([]int, len(in))}
	for i, t := range in {
		if uint(t.ID) < uint(len(in)) {
			r.dense[t.ID] = i + 1
			continue
		}
		if r.sparse == nil {
			r.sparse = make(map[int]int)
		}
		r.sparse[t.ID] = i + 1
	}
	return r
}

// row returns the row of task id, or -1 if the instance lacks it.
func (r taskRows) row(id int) int {
	if uint(id) < uint(len(r.dense)) {
		return r.dense[id] - 1
	}
	return r.sparse[id] - 1
}

// rowEntries indexes one task row's entries for validate.
type rowEntries struct{ success, spol, last int }

// validate makes the checks in phases, each over the whole schedule,
// so the first failing check of the earliest phase is the one reported:
// per-entry checks, tasks without a successful run, aborted runs after
// the success, spoliation profit, per-worker overlap, dependencies.
func (s *Schedule) validate(in platform.Instance, g *dag.Graph, dur func(t platform.Task, k platform.Kind) float64, relaxed bool) error {
	const tol = 1e-6
	if dur == nil {
		dur = func(t platform.Task, k platform.Kind) float64 { return t.Time(k) }
	}
	rows := newTaskRows(in)
	nw := s.Platform.Workers()
	// task[r] holds row r's entry indices: its successful run and the
	// first and last of its Spoliation entries, or -1; next chains a
	// task's Spoliation entries in entry order.
	task := make([]rowEntries, len(in))
	for r := range task {
		task[r] = rowEntries{success: -1, spol: -1, last: -1}
	}
	next := make([]int, len(s.Entries))
	// off[w+1] counts worker w's entries, until the overlap check turns
	// the counts into bucket offsets.
	off := make([]int, nw+1)
	aborted := 0
	for i := range s.Entries {
		e := &s.Entries[i]
		if e.Worker < 0 || e.Worker >= nw {
			return fmt.Errorf("sim: entry %d: worker %d out of range", i, e.Worker)
		}
		if got := s.Platform.KindOf(e.Worker); got != e.Kind {
			return fmt.Errorf("sim: entry %d: kind %v does not match worker %d (%v)", i, e.Kind, e.Worker, got)
		}
		r := rows.row(e.TaskID)
		if r < 0 {
			return fmt.Errorf("sim: entry %d: unknown task %d", i, e.TaskID)
		}
		if e.Start < -tol || e.End < e.Start-tol {
			return fmt.Errorf("sim: entry %d: bad interval [%v,%v]", i, e.Start, e.End)
		}
		want := dur(in[r], e.Kind)
		if e.Aborted {
			if !relaxed && e.Duration() > want+tol {
				return fmt.Errorf("sim: entry %d: aborted run of task %d longer (%v) than full time %v", i, e.TaskID, e.Duration(), want)
			}
			aborted++
		} else {
			slack := tol * max(1, want)
			short := e.Duration() < want-slack
			long := e.Duration() > want+slack
			if short || (long && !relaxed) {
				return fmt.Errorf("sim: entry %d: task %d duration %v, want %v on %v", i, e.TaskID, e.Duration(), want, e.Kind)
			}
			if prev := task[r].success; prev >= 0 {
				return fmt.Errorf("sim: task %d has two successful runs (%v and %v)", e.TaskID, s.Entries[prev], *e)
			}
			task[r].success = i
		}
		if e.Spoliation {
			next[i] = -1
			if tail := task[r].last; tail >= 0 {
				next[tail] = i
			} else {
				task[r].spol = i
			}
			task[r].last = i
		}
		off[e.Worker+1]++
	}
	for _, t := range in {
		if task[rows.row(t.ID)].success < 0 {
			return fmt.Errorf("sim: task %d has no successful run", t.ID)
		}
	}
	if aborted > 0 {
		for i := range s.Entries {
			if e := &s.Entries[i]; e.Aborted {
				if fin := s.Entries[task[rows.row(e.TaskID)].success]; e.End > fin.End+tol {
					return fmt.Errorf("sim: task %d aborted at %v after its successful completion %v", e.TaskID, e.End, fin.End)
				}
			}
		}
		// Spoliation profit (Algorithm 1): every aborted run must be
		// answered by a spoliation restart at the abort instant, and the
		// thief's estimated completion — start plus the nominal processing
		// time of its class, which is what the scheduler decided on — must
		// strictly improve on the victim's. Estimated times are used on
		// both sides even under an actual-duration model (ValidateTimed):
		// the rule is about what the scheduler believed, which never
		// includes the noise. The restart is the first Spoliation entry of
		// the task, in entry order, that starts at the abort instant.
		for i := range s.Entries {
			a := &s.Entries[i]
			if !a.Aborted {
				continue
			}
			r := rows.row(a.TaskID)
			restart := task[r].spol
			for ; restart >= 0; restart = next[restart] {
				if math.Abs(s.Entries[restart].Start-a.End) <= tol {
					break
				}
			}
			if restart < 0 {
				return fmt.Errorf("sim: entry %d: task %d aborted at %v with no spoliation restart", i, a.TaskID, a.End)
			}
			thief := &s.Entries[restart]
			t := in[r]
			victimEnd := a.Start + t.Time(a.Kind)
			thiefEnd := thief.Start + t.Time(thief.Kind)
			if thiefEnd >= victimEnd {
				return fmt.Errorf("sim: task %d spoliated without profit: restart on %v would finish at %v, victim on %v at %v",
					a.TaskID, thief.Kind, thiefEnd, a.Kind, victimEnd)
			}
		}
	}
	// Overlap: bucket the entry indices by worker in entry order (a
	// counting sort), and sort a bucket by start only if it is out of
	// order. The sort is stable, so runs with equal starts stay in entry
	// order.
	for w := range nw {
		off[w+1] += off[w]
	}
	order := make([]int, len(s.Entries))
	for i := range s.Entries {
		w := s.Entries[i].Worker
		order[off[w]] = i
		off[w]++
	}
	byStart := func(i, j int) int { return cmp.Compare(s.Entries[i].Start, s.Entries[j].Start) }
	lo := 0
	for w := range nw {
		b := order[lo:off[w]]
		lo = off[w]
		if !slices.IsSortedFunc(b, byStart) {
			slices.SortStableFunc(b, byStart)
		}
		for k := 1; k < len(b); k++ {
			prev, cur := &s.Entries[b[k-1]], &s.Entries[b[k]]
			if cur.Start < prev.End-tol {
				return fmt.Errorf("sim: worker %d: overlapping runs of tasks %d and %d", w, prev.TaskID, cur.TaskID)
			}
		}
	}
	if g != nil {
		for i := range s.Entries {
			e := &s.Entries[i]
			if uint(e.TaskID) >= uint(g.Len()) {
				return fmt.Errorf("sim: entry %d: task %d is not in the graph", i, e.TaskID)
			}
			for _, p := range g.Preds(e.TaskID) {
				// A predecessor missing from in counts as done at 0.
				var fin float64
				if r := rows.row(p); r >= 0 {
					fin = s.Entries[task[r].success].End
				}
				if e.Start < fin-tol {
					return fmt.Errorf("sim: task %d starts at %v before predecessor %d completes at %v", e.TaskID, e.Start, p, fin)
				}
			}
		}
	}
	return nil
}

// Gantt renders an ASCII Gantt chart with the given number of columns.
// Aborted runs are drawn with 'x', successful runs with the last hex digit
// of the task ID.
func (s *Schedule) Gantt(cols int) string {
	if cols < 10 {
		cols = 10
	}
	ms := s.Makespan()
	if ms <= 0 {
		return "(empty schedule)\n"
	}
	scale := float64(cols) / ms
	var b strings.Builder
	fmt.Fprintf(&b, "time: 0 .. %.4g (one column = %.4g)\n", ms, ms/float64(cols))
	for w := 0; w < s.Platform.Workers(); w++ {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range s.Entries {
			if e.Worker != w {
				continue
			}
			lo := int(e.Start * scale)
			hi := int(e.End * scale)
			if hi >= cols {
				hi = cols - 1
			}
			ch := byte("0123456789abcdef"[e.TaskID%16])
			if e.Aborted {
				ch = 'x'
			}
			for i := lo; i <= hi && i < cols; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "%6s |%s|\n", s.Platform.WorkerName(w), row)
	}
	return b.String()
}

// CSV renders the schedule as comma-separated rows:
// task,worker,kind,start,end,aborted,spoliation.
func (s *Schedule) CSV() string {
	var b strings.Builder
	b.WriteString("task,worker,kind,start,end,aborted,spoliation\n")
	for _, e := range s.Entries {
		fmt.Fprintf(&b, "%d,%d,%s,%.9g,%.9g,%v,%v\n",
			e.TaskID, e.Worker, e.Kind, e.Start, e.End, e.Aborted, e.Spoliation)
	}
	return b.String()
}
