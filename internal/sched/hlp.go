package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// and lambda <= OPT because the integral optimum is LP-feasible. The proof
// holds for any optimum of the LP, so the independent variant finds one
// without the simplex where it can: hlpWalk, the area bound's Lemma 1-2
// walk with a cap per task, solves the LP exactly in O(n log n) whenever
// its optimum is a single point. Where it is not (one dominant task sets
// lambda = max_i min(p_i, q_i), a ρ tie sits where the walk's fill stops,
// or a share lies too close to 1/2), lp.Solve picks Bland's vertex, which
// HLP rounds if the walk's check finds it an optimum; otherwise, and on a
// solver error, HLP rounds the walk's own optimum. The DAG variant adds
// fractional completion-time variables along edges before rounding and
// keeps the simplex; its list phase is online, so its contract in the
// ratio suite is a pinned empirical bound rather than a theorem.

// hlpAllocIndependent returns the rounded class of each task (index-aligned
// with in) together with the LP optimum lambda. The walk answers alone
// when the LP's optimum is a single point. Otherwise lp.Solve picks one of
// the tied optima, and HLP rounds that vertex if it is an optimum of the
// walk's LP; if it is not, or the solver fails, HLP rounds the walk's own
// optimum.
func hlpAllocIndependent(in platform.Instance, pl platform.Platform) ([]platform.Kind, float64, error) {
	kinds := make([]platform.Kind, len(in))
	if done, err := hlpDegenerate(kinds, pl); done || err != nil {
		return kinds, 0, err
	}
	if len(in) == 0 {
		return kinds, 0, nil
	}
	w := newHLPWalk(in, pl)
	if !w.unique() {
		if x, lambda, err := hlpLPIndependent(in, pl); err == nil && w.accepts(x, lambda) {
			for i := range in {
				kinds[i] = hlpRound(x[i])
			}
			return kinds, w.lambda, nil
		}
	}
	for _, t := range w.tasks {
		kinds[t.i] = hlpRound(t.x)
	}
	return kinds, w.lambda, nil
}

// hlpLPIndependent solves the independent allocation LP with lp.Solve and
// returns the CPU share of each task (index-aligned with in) and lambda.
func hlpLPIndependent(in platform.Instance, pl platform.Platform) ([]float64, float64, error) {
	n := len(in)
	// Variables: x_0..x_{n-1} (CPU fractions), then lambda.
	nv := n + 1
	obj := make([]float64, nv)
	obj[n] = 1
	rows := make([]lp.Constraint, 0, n*2+2)
	rows = append(rows, hlpAreaRows(in, pl, nv, n)...)
	// The two rows of each task share one backing array.
	coeffs := make([]float64, 2*n*nv)
	for i, t := range in {
		cu := coeffs[2*i*nv : 2*(i+1)*nv]
		// x_i*p_i + (1-x_i)*q_i <= lambda
		c := lp.Constraint{Coeffs: cu[:nv:nv], Rel: lp.LE, Bound: -t.GPUTime}
		c.Coeffs[i] = t.CPUTime - t.GPUTime
		c.Coeffs[n] = -1
		rows = append(rows, c)
		// x_i <= 1
		u := lp.Constraint{Coeffs: cu[nv:], Rel: lp.LE, Bound: 1}
		u.Coeffs[i] = 1
		rows = append(rows, u)
	}
	return hlpSolve(obj, rows)
}

const (
	// hlpRelTol is the relative tolerance of the walk's check of an
	// lp.Solve answer, which unique allows for.
	hlpRelTol = 1e-9
	// hlpHalfMargin is how close to 1/2 a walk share may come before the
	// walk leaves the LP to lp.Solve.
	hlpHalfMargin = 1e-6
)

// hlpShare is one task of the walk.
type hlpShare struct {
	p, q, rho float64
	i         int // index of the task in the instance
	// lo and hi bound the task's CPU share at the walk's current lambda,
	// dlo and dhi are their right derivatives in lambda, and x is the
	// share the fill gives it.
	lo, hi, dlo, dhi, x float64
}

// hlpWalk solves the independent allocation LP without the simplex, by
// the Lemma 1-2 walk of bounds.Area with a cap per task.
//
// For lambda >= M0 = max_i min(p_i, q_i), task i's own row confines its
// CPU share to an interval [lo_i, hi_i]. Starting from x = lo, the walk
// fills the CPU area m*lambda in increasing-ρ order, raising each share up
// to hi: that leaves the least GPU work G(lambda) any share vector can,
// since a unit of CPU work saves 1/ρ units of GPU work. The LP optimum is
// the least lambda at which the fill fits on the CPUs and G(lambda) fits
// in n*lambda. Both gaps, m*lambda - sum lo_i p_i and n*lambda - G(lambda),
// are concave and piecewise linear in lambda, as values of LPs whose
// right-hand sides are affine in lambda. A Newton step along a right
// slope read off an optimal dual of the fill therefore never passes the
// root, and the steps from M0 land on it, each one O(n) pass.
type hlpWalk struct {
	tasks      []hlpShare // by increasing ρ, ties by index
	m, n       float64
	m0, lambda float64
	// stop is the position in tasks of the first share the fill left
	// below its hi, len(tasks) if it raised them all. pi is the fill's
	// dual price of CPU area in GPU work: the stop task's q/p, 0 without
	// a stop. gap and slope are the GPU gap and its right slope at lambda,
	// and widen is the CPU area that the CPU row and the intervals open up
	// per unit of lambda: m + sum p*(dhi - dlo).
	stop              int
	pi                float64
	gap, slope, widen float64
	converged         bool
}

// newHLPWalk runs the walk on a platform with both classes and a nonempty
// instance.
func newHLPWalk(in platform.Instance, pl platform.Platform) *hlpWalk {
	w := &hlpWalk{tasks: make([]hlpShare, len(in)), m: float64(pl.CPUs), n: float64(pl.GPUs)}
	for i, t := range in {
		w.tasks[i] = hlpShare{p: t.CPUTime, q: t.GPUTime, rho: t.CPUTime / t.GPUTime, i: i}
		w.m0 = math.Max(w.m0, t.MinTime())
	}
	slices.SortFunc(w.tasks, cmpHLPShares)
	// Each step enters a new linear piece of a gap, or the next float
	// when the piece is shorter than one; a few more absorb rounding at
	// the root.
	limit := 2*len(in) + 64
	w.lambda = w.m0
	for iter := 0; ; iter++ {
		cpuGap, cpuSlope := w.fill(w.lambda)
		var next float64
		switch {
		case cpuGap < 0:
			next = w.lambda - cpuGap/cpuSlope
		case w.gap < 0:
			next = w.lambda - w.gap/w.slope
		default:
			w.converged = true
			return w
		}
		if iter == limit {
			return w
		}
		w.lambda = math.Max(next, math.Nextafter(w.lambda, math.Inf(1)))
	}
}

// cmpHLPShares orders shares by increasing ρ, ties by instance index.
func cmpHLPShares(a, b hlpShare) int {
	if c := cmp.Compare(a.rho, b.rho); c != 0 {
		return c
	}
	return cmp.Compare(a.i, b.i)
}

// fill sets every share's interval and the fill's shares at lambda, and
// the GPU gap n*lambda - G(lambda) with its right slope (meaningful once
// the CPU gap is not negative). It returns the CPU gap
// m*lambda - sum lo_i p_i and its right slope.
func (w *hlpWalk) fill(lambda float64) (cpuGap, cpuSlope float64) {
	var load float64
	cpuSlope, w.widen = w.m, w.m
	for k := range w.tasks {
		t := &w.tasks[k]
		t.lo, t.hi, t.dlo, t.dhi = 0, 1, 0, 0
		switch {
		case t.p > t.q && lambda < t.p:
			t.hi = (lambda - t.q) / (t.p - t.q)
			t.dhi = 1 / (t.p - t.q)
		case t.q > t.p && lambda < t.q:
			t.lo = (t.q - lambda) / (t.q - t.p)
			t.dlo = -1 / (t.q - t.p)
		}
		load += t.lo * t.p
		cpuSlope -= t.dlo * t.p
		w.widen += (t.dhi - t.dlo) * t.p
	}
	cpuGap = w.m*lambda - load
	rest := math.Max(cpuGap, 0)
	var gpu float64
	w.stop, w.pi = len(w.tasks), 0
	for k := range w.tasks {
		t := &w.tasks[k]
		t.x = t.lo
		if w.stop == len(w.tasks) {
			if room := (t.hi - t.lo) * t.p; room <= rest {
				t.x = t.hi
				rest -= room
			} else {
				w.stop, w.pi = k, t.q/t.p
				t.x += rest / t.p
			}
		}
		gpu += (1 - t.x) * t.q
	}
	w.gap = w.n*lambda - gpu
	// The fill's optimal dual prices a unit of CPU area at pi and holds
	// each other share at an end of its interval at its reduced cost
	// q - p*pi. Moving lambda moves the CPU area by m and each end by its
	// derivative d, so G falls at most at rate m*pi + sum d*(q - p*pi)
	// (every term is at least 0), exactly that fast when the dual is
	// unique. The gap then rises at most at rate slope, and a Newton step
	// along it stops short of the root or on it.
	w.slope = w.n + w.m*w.pi
	for k, t := range w.tasks {
		switch {
		case k < w.stop:
			w.slope += t.dhi * (t.q - t.p*w.pi)
		case k > w.stop:
			w.slope += t.dlo * (t.q - t.p*w.pi)
		}
	}
	return cpuGap, cpuSlope
}

// unique reports whether the walk's optimum is the LP's only optimum and
// no simplex answer that passes accepts could round it to other classes.
// That needs lambda above M0: at M0 the rows that bind are a task's own,
// and the area rows keep slack. Then every share must be more than
// hlpHalfMargin from 1/2, and moving it to 1/2 must cost more GPU work
// than an answer within accepts' tolerances can give away.
//
// The fill's dual gives each share held at an end of its interval a
// reduced cost r = q - p*pi per unit of share, so moving from the walk's x
// to shares x' within the intervals costs sum |x - x'|*|r| =
// G(x') - G(x) + pi*(CPU(x') - CPU(x)) in GPU work. An answer that passes
// accepts overruns lambda, the area rows and the intervals by so little
// that this sum stays below slack = 4*hlpRelTol*lambda*slope plus the GPU
// gap: three overruns of hlpRelTol each, and one more for rounding. The
// stop task has r = 0 but must trade CPU area with the nearest share the
// fill can move the other way, so a ρ tie where the fill stops costs
// nothing.
func (w *hlpWalk) unique() bool {
	if !w.converged || !(w.lambda > w.m0) {
		return false
	}
	slack := 4*hlpRelTol*w.lambda*w.slope + math.Max(w.gap, 0)
	for k, t := range w.tasks {
		d := math.Abs(t.x - 0.5)
		if d < hlpHalfMargin {
			return false
		}
		cost := d * math.Abs(t.q-t.p*w.pi)
		if k == w.stop {
			cost = w.stopCost(t, d)
		}
		if !(cost > slack) {
			return false
		}
	}
	return true
}

// stopCost is the least GPU work by which moving the stop task's share a
// distance d raises G. An answer within accepts' tolerances gets up to
// 4*hlpRelTol*lambda*widen of CPU area for free, from the CPU row and the
// intervals. Raising the share takes the rest from the nearest share the
// fill raised; lowering it gives the rest to the nearest share the fill
// could still raise, or leaves it idle.
func (w *hlpWalk) stopCost(t hlpShare, d float64) float64 {
	area := math.Max(d*t.p-4*hlpRelTol*w.lambda*w.widen, 0)
	if t.x < 0.5 {
		for k := w.stop - 1; k >= 0; k-- {
			if u := w.tasks[k]; u.hi > u.lo {
				return area * (u.q/u.p - w.pi)
			}
		}
		if area > 0 {
			return math.Inf(1)
		}
		return 0
	}
	for k := w.stop + 1; k < len(w.tasks); k++ {
		if u := w.tasks[k]; u.hi > u.lo {
			return area * (w.pi - u.q/u.p)
		}
	}
	return area * w.pi
}

// accepts reports whether an lp.Solve answer is an optimum of the walk's
// LP: its lambda matches the walk's and its shares satisfy every row, each
// to the relative tolerance hlpRelTol. x is index-aligned with the
// instance. The rows are checked at each share clamped into [0, 1], which
// rounds to the same class, so that a share a tolerance below 0 times a
// huge CPU time cannot offset real load.
func (w *hlpWalk) accepts(x []float64, lambda float64) bool {
	if w.converged && !(math.Abs(lambda-w.lambda) <= hlpRelTol*w.lambda) {
		return false
	}
	within := func(lhs, rhs float64) bool { return lhs <= rhs+hlpRelTol*(lhs+rhs) }
	var cpu, gpu float64
	for _, t := range w.tasks {
		xi := x[t.i]
		if !(xi >= -hlpRelTol && xi <= 1+hlpRelTol) {
			return false
		}
		xi = math.Min(math.Max(xi, 0), 1)
		c, g := xi*t.p, (1-xi)*t.q
		if !within(c+g, lambda) {
			return false
		}
		cpu += c
		gpu += g
	}
	return within(cpu, w.m*lambda) && within(gpu, w.n*lambda)
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
	cp := newClassPlacer(pl, len(in))
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
