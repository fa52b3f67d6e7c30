// Package sim provides the discrete-event simulation substrate shared by
// all schedulers: a worker kernel that advances virtual time, the event
// loop (Run) that drives a scheduling policy on it, a schedule recorder
// that keeps every execution attempt (including runs aborted by
// spoliation), schedule validation, and the metrics used in the paper's
// evaluation (makespan, per-class idle time with aborted work counted as
// idle, and equivalent acceleration factors).
package sim

import (
	"fmt"
	"math"
	"sort"
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
	return s.AssignedTasks(in)[k].EquivalentAccel()
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
//   - with a DAG, every run starts at or after the completion of all the
//     task's predecessors (their successful runs).
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

func (s *Schedule) validate(in platform.Instance, g *dag.Graph, dur func(t platform.Task, k platform.Kind) float64, relaxed bool) error {
	const tol = 1e-6
	if dur == nil {
		dur = func(t platform.Task, k platform.Kind) float64 { return t.Time(k) }
	}
	byID := in.ByID()
	perWorker := make(map[int][]Entry)
	success := make(map[int]Entry)
	for i, e := range s.Entries {
		if e.Worker < 0 || e.Worker >= s.Platform.Workers() {
			return fmt.Errorf("sim: entry %d: worker %d out of range", i, e.Worker)
		}
		if got := s.Platform.KindOf(e.Worker); got != e.Kind {
			return fmt.Errorf("sim: entry %d: kind %v does not match worker %d (%v)", i, e.Kind, e.Worker, got)
		}
		t, ok := byID[e.TaskID]
		if !ok {
			return fmt.Errorf("sim: entry %d: unknown task %d", i, e.TaskID)
		}
		if e.Start < -tol || e.End < e.Start-tol {
			return fmt.Errorf("sim: entry %d: bad interval [%v,%v]", i, e.Start, e.End)
		}
		want := dur(t, e.Kind)
		if e.Aborted {
			if !relaxed && e.Duration() > want+tol {
				return fmt.Errorf("sim: entry %d: aborted run of task %d longer (%v) than full time %v", i, e.TaskID, e.Duration(), want)
			}
		} else {
			short := e.Duration() < want-tol*math.Max(1, want)
			long := e.Duration() > want+tol*math.Max(1, want)
			if short || (long && !relaxed) {
				return fmt.Errorf("sim: entry %d: task %d duration %v, want %v on %v", i, e.TaskID, e.Duration(), want, e.Kind)
			}
			if prev, dup := success[e.TaskID]; dup {
				return fmt.Errorf("sim: task %d has two successful runs (%v and %v)", e.TaskID, prev, e)
			}
			success[e.TaskID] = e
		}
		perWorker[e.Worker] = append(perWorker[e.Worker], e)
	}
	for id := range byID {
		if _, ok := success[id]; !ok {
			return fmt.Errorf("sim: task %d has no successful run", id)
		}
	}
	for _, e := range s.Entries {
		if e.Aborted {
			if fin := success[e.TaskID]; e.End > fin.End+tol {
				return fmt.Errorf("sim: task %d aborted at %v after its successful completion %v", e.TaskID, e.End, fin.End)
			}
		}
	}
	// Spoliation profit (Algorithm 1): every aborted run must be answered
	// by a spoliation restart at the abort instant, and the thief's
	// estimated completion — start plus the nominal processing time of its
	// class, which is what the scheduler decided on — must strictly
	// improve on the victim's. Estimated times are used on both sides even
	// under an actual-duration model (ValidateTimed): the rule is about
	// what the scheduler believed, which never includes the noise.
	for i, a := range s.Entries {
		if !a.Aborted {
			continue
		}
		restart := -1
		for j, r := range s.Entries {
			if r.Spoliation && r.TaskID == a.TaskID && math.Abs(r.Start-a.End) <= tol {
				restart = j
				break
			}
		}
		if restart < 0 {
			return fmt.Errorf("sim: entry %d: task %d aborted at %v with no spoliation restart", i, a.TaskID, a.End)
		}
		r := s.Entries[restart]
		t := byID[a.TaskID]
		victimEnd := a.Start + t.Time(a.Kind)
		thiefEnd := r.Start + t.Time(r.Kind)
		if thiefEnd >= victimEnd {
			return fmt.Errorf("sim: task %d spoliated without profit: restart on %v would finish at %v, victim on %v at %v",
				a.TaskID, r.Kind, thiefEnd, a.Kind, victimEnd)
		}
	}
	for w, es := range perWorker {
		sort.Slice(es, func(i, j int) bool { return es[i].Start < es[j].Start })
		for i := 1; i < len(es); i++ {
			if es[i].Start < es[i-1].End-tol {
				return fmt.Errorf("sim: worker %d: overlapping runs of tasks %d and %d", w, es[i-1].TaskID, es[i].TaskID)
			}
		}
	}
	if g != nil {
		for _, e := range s.Entries {
			for _, p := range g.Preds(e.TaskID) {
				if e.Start < success[p].End-tol {
					return fmt.Errorf("sim: task %d starts at %v before predecessor %d completes at %v", e.TaskID, e.Start, p, success[p].End)
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
