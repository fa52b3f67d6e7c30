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

// ByAccelDesc returns a copy of the instance in non-increasing
// acceleration factor order, ties in input order: the HeteroPrio queue
// order (Algorithm 1, line 1). Each factor is computed once into a flat
// (ρ, index) key; the keys are sorted and the tasks gathered in one pass,
// so no comparison divides or moves a whole Task.
func (in Instance) ByAccelDesc() Instance {
	keys := make([]accelKey, len(in))
	for i := range in {
		keys[i] = accelKey{rho: in[i].Accel(), i: i}
	}
	slices.SortFunc(keys, cmpAccelKeys)
	out := make(Instance, len(in))
	for j, key := range keys {
		out[j] = in[key.i]
	}
	return out
}

// accelKey is one task's acceleration factor and index in its instance.
type accelKey struct {
	rho float64
	i   int
}

// cmpAccelKeys orders keys by non-increasing ρ (cmp.Compare's order, so a
// NaN comes last and −0 ties +0), ties by increasing index: a strict
// total order, under which an unstable sort gives the stable one.
func cmpAccelKeys(a, b accelKey) int {
	if c := cmp.Compare(b.rho, a.rho); c != 0 {
		return c
	}
	return cmp.Compare(a.i, b.i)
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
