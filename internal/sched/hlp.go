package sched

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/sim"
)

// HLP is the LP-rounding allocator of the generic-algorithms family
// (Amaris, Lucarelli, Mommessin, Trystram, arXiv 1711.06433): solve the
// fractional allocation LP — minimize lambda subject to the two class area
// constraints and, per task, x_j*p_j + (1-x_j)*q_j <= lambda — then round
// x_j >= 1/2 to the CPU class and list-schedule each class greedily.
//
// The rounding argument gives a self-contained 4-approximation for
// independent tasks (the bound TestZooRatioProperties pins):
//
//	class work after rounding <= 2 * (fractional class work) <= 2*m*lambda
//	rounded per-task time     <= lambda / max(x, 1-x)        <= 2*lambda
//	greedy class makespan     <= work/m + max task           <= 4*lambda
//
// and lambda <= OPT because the integral optimum is LP-feasible. The DAG
// variant adds fractional completion-time variables along edges before
// rounding; its list phase is online, so its contract in the ratio suite
// is a pinned empirical bound rather than a theorem.

// hlpAllocIndependent solves the independent-task allocation LP and
// returns the rounded class of each task (index-aligned with in) together
// with the LP optimum lambda.
func hlpAllocIndependent(in platform.Instance, pl platform.Platform) ([]platform.Kind, float64, error) {
	kinds := make([]platform.Kind, len(in))
	if done, err := hlpDegenerate(kinds, pl); done || err != nil {
		return kinds, 0, err
	}
	n := len(in)
	if n == 0 {
		return kinds, 0, nil
	}
	// Variables: x_0..x_{n-1} (CPU fractions), then lambda.
	nv := n + 1
	obj := make([]float64, nv)
	obj[n] = 1
	rows := make([]lp.Constraint, 0, n*2+2)
	rows = append(rows, hlpAreaRows(in, pl, nv, n)...)
	for i, t := range in {
		// x_i*p_i + (1-x_i)*q_i <= lambda
		c := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE, Bound: -t.GPUTime}
		c.Coeffs[i] = t.CPUTime - t.GPUTime
		c.Coeffs[n] = -1
		rows = append(rows, c)
		// x_i <= 1
		u := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE, Bound: 1}
		u.Coeffs[i] = 1
		rows = append(rows, u)
	}
	x, lambda, err := hlpSolve(obj, rows)
	if err != nil {
		return nil, 0, err
	}
	for i := range in {
		kinds[i] = hlpRound(x[i])
	}
	return kinds, lambda, nil
}

// hlpDegenerate fills kinds for single-class platforms, reporting whether
// it did (no LP needed).
func hlpDegenerate(kinds []platform.Kind, pl platform.Platform) (bool, error) {
	if err := pl.Validate(); err != nil {
		return false, err
	}
	switch {
	case pl.GPUs == 0:
		return true, nil // zero value is CPU
	case pl.CPUs == 0:
		for i := range kinds {
			kinds[i] = platform.GPU
		}
		return true, nil
	}
	return false, nil
}

// hlpAreaRows builds the two aggregate capacity rows shared by both LPs:
// sum x_i p_i <= m*lambda and sum (1-x_i) q_i <= n*lambda. lambdaAt is the
// column index of lambda; task i's fraction lives in column i.
func hlpAreaRows(in platform.Instance, pl platform.Platform, nv, lambdaAt int) []lp.Constraint {
	cpu := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE}
	gpu := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE}
	var totalQ float64
	for i, t := range in {
		cpu.Coeffs[i] = t.CPUTime
		gpu.Coeffs[i] = -t.GPUTime
		totalQ += t.GPUTime
	}
	cpu.Coeffs[lambdaAt] = -float64(pl.CPUs)
	gpu.Coeffs[lambdaAt] = -float64(pl.GPUs)
	gpu.Bound = -totalQ
	return []lp.Constraint{cpu, gpu}
}

// hlpSolve runs the simplex and surfaces non-optimal outcomes as errors.
// Solver errors, lp.ErrIterationLimit among them, are wrapped.
func hlpSolve(obj []float64, rows []lp.Constraint) ([]float64, float64, error) {
	sol, err := lp.Solve(&lp.Problem{Objective: obj, Rows: rows})
	if err != nil {
		return nil, 0, fmt.Errorf("sched: HLP allocation LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("sched: HLP allocation LP returned %v", sol.Status)
	}
	return sol.X, sol.Value, nil
}

// hlpRound maps a fractional CPU share to a class: x >= 1/2 rounds to CPU.
func hlpRound(x float64) platform.Kind {
	if x >= 0.5 {
		return platform.CPU
	}
	return platform.GPU
}

// HLPIndependent schedules an independent instance with HLP: LP
// allocation, rounding, then longest-processing-time list scheduling
// within each class on the least-loaded worker.
func HLPIndependent(in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	kinds, _, err := hlpAllocIndependent(in, pl)
	if err != nil {
		return nil, err
	}
	// LPT within the assigned class (stable, so equal durations keep input
	// order). Sorting an index slice keeps the input instance untouched.
	idx := make([]int, len(in))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return in[idx[a]].Time(kinds[idx[a]]) > in[idx[b]].Time(kinds[idx[b]])
	})
	cp := newClassPlacer(pl)
	for _, i := range idx {
		cp.place(in[i], kinds[i])
	}
	return cp.schedule(), nil
}

// hlpAllocDAG solves the DAG allocation LP (fractional allocations plus
// per-task completion times chained along edges) and returns the rounded
// class of each task, indexed by task ID.
func hlpAllocDAG(g *dag.Graph, pl platform.Platform) ([]platform.Kind, error) {
	in := g.Tasks()
	kinds := make([]platform.Kind, len(in))
	if done, err := hlpDegenerate(kinds, pl); done || err != nil {
		return kinds, err
	}
	n := len(in)
	if n == 0 {
		return kinds, nil
	}
	// Variables: x_0..x_{n-1}, C_0..C_{n-1}, lambda.
	nv := 2*n + 1
	obj := make([]float64, nv)
	obj[2*n] = 1
	rows := make([]lp.Constraint, 0, 3*n+g.Edges()+2)
	rows = append(rows, hlpAreaRows(in, pl, nv, 2*n)...)
	for i, t := range in {
		// C_i >= x_i*p_i + (1-x_i)*q_i (duration of the task itself).
		c := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE, Bound: -t.GPUTime}
		c.Coeffs[i] = t.CPUTime - t.GPUTime
		c.Coeffs[n+i] = -1
		rows = append(rows, c)
		// C_i <= lambda.
		l := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE}
		l.Coeffs[n+i] = 1
		l.Coeffs[2*n] = -1
		rows = append(rows, l)
		// x_i <= 1.
		u := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE, Bound: 1}
		u.Coeffs[i] = 1
		rows = append(rows, u)
		// Precedence: C_v >= C_u + duration(v) for each edge (u, v).
		for _, v := range g.Succs(t.ID) {
			tv := g.Task(v)
			e := lp.Constraint{Coeffs: make([]float64, nv), Rel: lp.LE, Bound: -tv.GPUTime}
			e.Coeffs[n+t.ID] = 1
			e.Coeffs[n+v] = -1
			e.Coeffs[v] = tv.CPUTime - tv.GPUTime
			rows = append(rows, e)
		}
	}
	x, _, err := hlpSolve(obj, rows)
	if err != nil {
		return nil, err
	}
	for i := range in {
		kinds[i] = hlpRound(x[i])
	}
	return kinds, nil
}

// HLPDAG schedules a task graph with HLP: the DAG allocation LP fixes each
// task's class up front, then an online priority list schedule runs each
// class (assign priorities first, e.g. with AssignBottomLevelPriorities).
func HLPDAG(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	kinds, err := hlpAllocDAG(g, pl)
	if err != nil {
		return nil, err
	}
	var queues [platform.NumKinds]classQueue
	seq := 0
	release := func(t platform.Task) {
		queues[kinds[t.ID]].add(t, seq)
		seq++
	}
	pick := func(_ int, kind platform.Kind) (platform.Task, bool) {
		return queues[kind].pop()
	}
	return runList(pl, sim.Releases{Graph: g}, release, pickRound(pick, nominal))
}

// HLPDAGWithPriorities assigns bottom-level priorities under the given
// weighting and runs HLPDAG.
func HLPDAGWithPriorities(g *dag.Graph, pl platform.Platform, w dag.Weighting) (*sim.Schedule, error) {
	if _, err := g.AssignBottomLevelPriorities(w, pl); err != nil {
		return nil, err
	}
	return HLPDAG(g, pl)
}
