// Package bounds implements the lower bounds of the paper: the area bound
// of Section 4.2 (tasks made divisible, per-class aggregate capacity), the
// trivial per-task bound max_i min(p_i, q_i), and the DAG-aware bound used
// in Section 6.2 (area bound strengthened with the min-duration critical
// path, following reference [12]).
//
// The area bound is computed combinatorially in O(T log T) by exploiting
// the structure proven in Lemmas 1 and 2 of the paper: in the optimal
// fractional solution both resource classes finish simultaneously and the
// assignment is a split of the acceleration-factor-sorted task list, with
// at most one task split across the classes. An LP formulation solved with
// the in-repo simplex (package lp) is provided for cross-validation.
package bounds

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/lp"
	"repro/internal/platform"
)

// AreaSolution describes the optimal divisible-load solution.
type AreaSolution struct {
	// Bound is AreaBound(I), a lower bound on the optimal makespan.
	Bound float64
	// CPUFraction maps task ID to x_i, the fraction of the task processed
	// on the CPU class (Section 4.2's x_i).
	CPUFraction map[int]float64
	// SplitAccel is the acceleration-factor threshold k of Lemma 2: tasks
	// with rho > SplitAccel run on GPUs, tasks with rho < SplitAccel on
	// CPUs. It is NaN when one class receives no work.
	SplitAccel float64
}

// Area computes the area bound of instance in on platform pl, together
// with the witnessing fractional assignment.
func Area(in platform.Instance, pl platform.Platform) (AreaSolution, error) {
	w, err := walk(in, pl)
	if err != nil {
		return AreaSolution{}, err
	}
	sol := AreaSolution{Bound: w.bound, CPUFraction: make(map[int]float64, len(in)), SplitAccel: math.NaN()}
	if w.sorted == nil {
		// Empty instance or one class: everything runs on the CPUs
		// exactly when there are no GPUs.
		x := 0.0
		if pl.GPUs == 0 {
			x = 1
		}
		for _, t := range in {
			sol.CPUFraction[t.ID] = x
		}
		return sol, nil
	}
	for i, t := range w.sorted {
		switch {
		case i < w.split:
			sol.CPUFraction[t.ID] = 0
		case i == w.split:
			sol.CPUFraction[t.ID] = 1 - w.gpuShare
		default:
			sol.CPUFraction[t.ID] = 1
		}
	}
	if w.split < len(w.sorted) {
		sol.SplitAccel = w.sorted[w.split].Accel()
	}
	return sol, nil
}

// areaWalk is the optimum Area reports, without the per-task map: the
// bound and, on a two-class platform, where the acceleration-sorted
// tasks split between the classes. sorted[:split] run on the GPUs,
// sorted[split] runs gpuShare of itself there and the rest on the CPUs,
// and sorted[split+1:] run on the CPUs. split == len(sorted) puts every
// task on the GPUs. sorted is nil for an empty instance or a one-class
// platform.
type areaWalk struct {
	bound    float64
	sorted   platform.Instance
	split    int
	gpuShare float64
}

// walk validates its inputs and finds the area bound's optimum by the
// walk of Lemmas 1 and 2.
func walk(in platform.Instance, pl platform.Platform) (areaWalk, error) {
	if err := pl.Validate(); err != nil {
		return areaWalk{}, err
	}
	if err := in.Validate(); err != nil {
		return areaWalk{}, err
	}
	if len(in) == 0 {
		return areaWalk{}, nil
	}
	m, n := float64(pl.CPUs), float64(pl.GPUs)
	switch {
	case pl.GPUs == 0:
		return areaWalk{bound: in.TotalTime(platform.CPU) / m}, nil
	case pl.CPUs == 0:
		return areaWalk{bound: in.TotalTime(platform.GPU) / n}, nil
	}

	sorted := in.ByAccelDesc()
	// Suffix sums of p (CPU work if the whole suffix runs on CPUs).
	suffixP := make([]float64, len(sorted)+1)
	for i := len(sorted) - 1; i >= 0; i-- {
		suffixP[i] = suffixP[i+1] + sorted[i].CPUTime
	}
	// Walk the split point: GPU class receives tasks [0,k) entirely plus a
	// fraction f of task k. Both class finish times are continuous and
	// monotone in the walk, so the crossing exists and is the optimum.
	var prefixQ float64
	for k := 0; k < len(sorted); k++ {
		tk := sorted[k]
		// Fraction f of task k on GPU equalizing the two finish times:
		// (prefixQ + f*q_k)/n == (suffixP[k+1] + (1-f)*p_k)/m.
		f := (n*(suffixP[k+1]+tk.CPUTime) - m*prefixQ) / (m*tk.GPUTime + n*tk.CPUTime)
		if f < -1e-12 {
			// Crossing happened before this task: equalization impossible
			// because GPU side is already too loaded; the bound is the GPU
			// time with everything up to k-1 (cannot happen for k=0 since
			// prefixQ=0). Clamp to f=0.
			f = 0
		}
		if f <= 1+1e-12 {
			f = math.Min(f, 1)
			gpuTime := (prefixQ + f*tk.GPUTime) / n
			cpuTime := (suffixP[k+1] + (1-f)*tk.CPUTime) / m
			return areaWalk{bound: math.Max(gpuTime, cpuTime), sorted: sorted, split: k, gpuShare: f}, nil
		}
		prefixQ += tk.GPUTime
	}
	// Everything on the GPUs and they still finish before the (empty) CPUs
	// would: bound is the full GPU load.
	return areaWalk{bound: prefixQ / n, sorted: sorted, split: len(sorted)}, nil
}

// AreaBound returns only the bound value of Area, without building its
// per-task map.
func AreaBound(in platform.Instance, pl platform.Platform) (float64, error) {
	w, err := walk(in, pl)
	return w.bound, err
}

// AreaBoundLP solves the Section 4.2 linear program directly with the
// in-repo simplex solver. It is exponentially slower than Area and exists
// to cross-validate it in tests.
func AreaBoundLP(in platform.Instance, pl platform.Platform) (float64, error) {
	if err := pl.Validate(); err != nil {
		return 0, err
	}
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if len(in) == 0 {
		return 0, nil
	}
	m, n := float64(pl.CPUs), float64(pl.GPUs)
	T := len(in)
	// Variables: x_0..x_{T-1} (CPU fractions), then M (the bound).
	nv := T + 1
	obj := make([]float64, nv)
	obj[T] = 1
	var rows []lp.Constraint
	if pl.CPUs > 0 {
		// sum x_i p_i - m*M <= 0
		c := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE}
		for i, t := range in {
			c.Coeffs[i] = t.CPUTime
		}
		c.Coeffs[T] = -m
		rows = append(rows, c)
	} else {
		// No CPUs: every x_i must be 0.
		for i := range in {
			c := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE, Bound: 0}
			c.Coeffs[i] = 1
			rows = append(rows, c)
		}
	}
	if pl.GPUs > 0 {
		// sum (1-x_i) q_i <= n*M  ->  -sum x_i q_i - n*M <= -sum q_i
		c := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE}
		var total float64
		for i, t := range in {
			c.Coeffs[i] = -t.GPUTime
			total += t.GPUTime
		}
		c.Coeffs[T] = -n
		c.Bound = -total
		rows = append(rows, c)
	} else {
		for i := range in {
			c := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.GE, Bound: 1}
			c.Coeffs[i] = 1
			rows = append(rows, c)
		}
	}
	for i := range in {
		c := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE, Bound: 1}
		c.Coeffs[i] = 1
		rows = append(rows, c)
	}
	sol, err := lp.Solve(&lp.Problem{Objective: obj, Rows: rows})
	if err != nil {
		return 0, fmt.Errorf("bounds: area LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("bounds: area LP returned %v", sol.Status)
	}
	return sol.Value, nil
}

// MaxMinBound returns max_i min(p_i, q_i), the per-task lower bound of
// Section 4.2.
func MaxMinBound(in platform.Instance) float64 { return in.MaxMinTime() }

// Lower returns the combined independent-task lower bound
// max(AreaBound, MaxMinBound).
func Lower(in platform.Instance, pl platform.Platform) (float64, error) {
	ab, err := AreaBound(in, pl)
	if err != nil {
		return 0, err
	}
	return math.Max(ab, MaxMinBound(in)), nil
}

// DAGLower returns the DAG-aware lower bound used as the Figure 7 baseline:
// the maximum of the area bound over all tasks, the per-task bound, and the
// critical path length where each task counts for its minimum duration.
func DAGLower(g *dag.Graph, pl platform.Platform) (float64, error) {
	in := g.Tasks()
	base, err := Lower(in, pl)
	if err != nil {
		return 0, err
	}
	cp, err := g.CriticalPath(dag.WeightMin, pl)
	if err != nil {
		return 0, err
	}
	return math.Max(base, cp), nil
}
