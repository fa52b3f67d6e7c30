package platform

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Instance is a set of independent tasks to be scheduled on a platform.
// The slice order is meaningful to schedulers that break acceleration-factor
// ties by input order (HeteroPrio's queue uses a stable sort).
type Instance []Task

// Validate checks that every task is well-formed and that IDs are unique.
// IDs in [0, len(in)), the usual numbering, are checked against a flat
// table, so validating them allocates the same amount on every call;
// other IDs fall back to a map.
func (in Instance) Validate() error {
	dense := make([]bool, len(in))
	var sparse map[int]bool
	for _, t := range in {
		if err := t.Validate(); err != nil {
			return err
		}
		var dup bool
		if uint(t.ID) < uint(len(dense)) {
			dup, dense[t.ID] = dense[t.ID], true
		} else {
			if sparse == nil {
				sparse = make(map[int]bool)
			}
			dup, sparse[t.ID] = sparse[t.ID], true
		}
		if dup {
			return fmt.Errorf("platform: duplicate task ID %d", t.ID)
		}
	}
	return nil
}

// Clone returns a deep copy of the instance.
func (in Instance) Clone() Instance {
	out := make(Instance, len(in))
	copy(out, in)
	return out
}

// Renumber assigns sequential IDs 0..len-1 in slice order and returns the
// instance for chaining. It is convenient after concatenating generators.
func (in Instance) Renumber() Instance {
	for i := range in {
		in[i].ID = i
	}
	return in
}

// TotalTime returns the sum of processing times of all tasks on class k.
func (in Instance) TotalTime(k Kind) float64 {
	var s float64
	for _, t := range in {
		s += t.Time(k)
	}
	return s
}

// MaxMinTime returns max_i min(p_i, q_i), a lower bound on the optimal
// makespan of the instance on any platform.
func (in Instance) MaxMinTime() float64 {
	var s float64
	for _, t := range in {
		s = math.Max(s, t.MinTime())
	}
	return s
}

// SortByAccelDesc stable-sorts the instance by non-increasing acceleration
// factor, preserving input order among ties. This is the HeteroPrio queue
// order (Algorithm 1, line 1).
func (in Instance) SortByAccelDesc() {
	slices.SortStableFunc(in, func(a, b Task) int {
		return cmp.Compare(b.Accel(), a.Accel())
	})
}

// SortByAccelDescPrio stable-sorts by non-increasing acceleration factor and
// applies the paper's priority tie-break: among tasks with the same
// acceleration factor, the highest priority comes first when rho >= 1 and
// last when rho < 1 (so that the worker class that favors that end of the
// queue picks urgent tasks first).
func (in Instance) SortByAccelDescPrio() {
	slices.SortStableFunc(in, func(a, b Task) int {
		ra, rb := a.Accel(), b.Accel()
		if ra != rb {
			return cmp.Compare(rb, ra)
		}
		if ra >= 1 {
			return cmp.Compare(b.Priority, a.Priority)
		}
		return cmp.Compare(a.Priority, b.Priority)
	})
}

// ByID returns a map from task ID to task value.
func (in Instance) ByID() map[int]Task {
	m := make(map[int]Task, len(in))
	for _, t := range in {
		m[t.ID] = t
	}
	return m
}

// EquivalentAccel returns the acceleration factor of the "equivalent task"
// made of all tasks of the instance: sum(p_i) / sum(q_i). The paper uses it
// (Section 6.2, Figure 8) to measure the adequacy of a task-to-resource
// allocation. It returns NaN for an empty instance.
func (in Instance) EquivalentAccel() float64 {
	if len(in) == 0 {
		return math.NaN()
	}
	return in.TotalTime(CPU) / in.TotalTime(GPU)
}

// AccelRange returns the smallest and largest acceleration factor of the
// instance. It returns (NaN, NaN) for an empty instance.
func (in Instance) AccelRange() (lo, hi float64) {
	if len(in) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, t := range in {
		r := t.Accel()
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	return lo, hi
}
