package sim_test

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// refValidate is the reference for Schedule.validate: the map-based
// checker that matched every aborted run against every entry. It is kept
// verbatim but for the receiver, now the first parameter, and the package
// qualifier on Entry, so FuzzValidateMatchesReference can hold the linear
// pass to the same verdicts. Its missing-run and overlap phases iterate
// maps, so with several failures its message names an arbitrary task or
// worker.
func refValidate(s *sim.Schedule, in platform.Instance, g *dag.Graph, dur func(t platform.Task, k platform.Kind) float64, relaxed bool) error {
	const tol = 1e-6
	if dur == nil {
		dur = func(t platform.Task, k platform.Kind) float64 { return t.Time(k) }
	}
	byID := in.ByID()
	perWorker := make(map[int][]sim.Entry)
	success := make(map[int]sim.Entry)
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
