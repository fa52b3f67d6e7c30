// Package lp implements a small two-phase primal simplex solver for
// linear programs in the form
//
//	minimize    c·x
//	subject to  A_i · x  (<=|=|>=)  b_i     for each row i
//	            x >= 0
//
// It solves HLP's fallback instances and HLPDAG's allocation LP (package
// sched), and AreaBoundLP in package bounds uses it to cross-check the
// combinatorial area bound. Bland's rule picks every pivot: the smallest
// eligible column, and the smallest basic index among tied ratios. That
// guarantees termination on degenerate programs, and it makes the vertex
// a program reaches a function of the program alone.
//
// The tableau is one row-major slice. A pivot divides the pivot row by the
// pivot element and records the row's nonzero columns. It then updates
// only those columns, and only in the rows whose pivot-column entry is
// nonzero. Phase 2 leaves the artificial columns stale, since its pricing
// never reads them. A skipped update would compute x - f*(±0), which is x
// for every nonzero x. So the solver makes the same pivots as a dense
// update of every column of every row, and every nonzero entry it computes
// has the same bits: X and Value are equal under ==, and only the sign of
// a zero can differ.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of one linear constraint.
type Relation int8

const (
	// LE is a <= constraint.
	LE Relation = iota
	// EQ is an == constraint.
	EQ
	// GE is a >= constraint.
	GE
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Relation(%d)", int8(r))
	}
}

// Constraint is one row of the program: Coeffs·x Rel Bound.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	Bound  float64
}

// Problem is a linear program over n non-negative variables.
type Problem struct {
	// Objective holds the cost vector c (minimization).
	Objective []float64
	// Rows holds the constraints; every Coeffs slice must have len(Objective).
	Rows []Constraint
}

// Status describes the outcome of Solve.
type Status int8

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set has no solution.
	Infeasible
	// Unbounded means the objective can decrease without bound.
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int8(s))
	}
}

// Solution is the result of a successful solve.
type Solution struct {
	Status Status
	// X is the optimal assignment (len = number of variables); nil unless
	// Status == Optimal.
	X []float64
	// Value is c·X; meaningless unless Status == Optimal.
	Value float64
}

const eps = 1e-9

// Validate checks dimensional consistency of the problem and that every
// objective coefficient, constraint coefficient and bound is finite.
func (p *Problem) Validate() error {
	n := len(p.Objective)
	if n == 0 {
		return errors.New("lp: empty objective")
	}
	for j, c := range p.Objective {
		if nonFinite(c) {
			return fmt.Errorf("lp: objective column %d has invalid coefficient %v", j, c)
		}
	}
	for i, row := range p.Rows {
		if len(row.Coeffs) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row.Coeffs), n)
		}
		for j, a := range row.Coeffs {
			if nonFinite(a) {
				return fmt.Errorf("lp: row %d column %d has invalid coefficient %v", i, j, a)
			}
		}
		if nonFinite(row.Bound) {
			return fmt.Errorf("lp: row %d has invalid bound %v", i, row.Bound)
		}
	}
	return nil
}

func nonFinite(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }

// ErrIterationLimit is returned when one simplex phase makes more pivots
// than its backstop allows. Bland's rule guarantees termination in exact
// arithmetic, so reaching the backstop means rounding defeated it on a
// numerically extreme input, not that the program has no solution.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// iterLimit is the pivot backstop of one simplex phase. It is a variable
// only so that tests can lower it.
var iterLimit = 200000

// Solve runs two-phase simplex and returns the solution.
func Solve(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	n := len(p.Objective)
	m := len(p.Rows)

	// Normalize to equality form with slack/surplus variables, all rows with
	// non-negative right-hand side: a row with a negative bound is negated
	// and its inequality flipped.
	rels := make([]Relation, m)
	nSlack, nArt := 0, 0
	for i, r := range p.Rows {
		rel := r.Rel
		if r.Bound < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rels[i] = rel
		if rel != EQ {
			nSlack++
		}
		if rel != LE {
			nArt++
		}
	}
	// Tableau columns: n structural, then one slack or surplus per
	// inequality row, then one artificial per GE or EQ row (an LE row's
	// slack is its initial basis), each group in row order, then the
	// right-hand side. Row i occupies tab[i*stride : (i+1)*stride].
	nReal := n + nSlack // columns phase 2 prices and updates
	width := nReal + nArt
	stride := width + 1
	tab := make([]float64, m*stride)
	basis := make([]int, m)
	slackAt, artAt := n, nReal
	for i, r := range p.Rows {
		row := tab[i*stride : (i+1)*stride]
		if r.Bound < 0 {
			for j, a := range r.Coeffs {
				row[j] = -a
			}
			row[width] = -r.Bound
		} else {
			copy(row, r.Coeffs)
			row[width] = r.Bound
		}
		switch rels[i] {
		case LE:
			row[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1 // surplus
			slackAt++
			fallthrough
		case EQ:
			row[artAt] = 1
			basis[i] = artAt
			artAt++
		}
	}

	// nz lists the nonzero columns of the current pivot row.
	nz := make([]int, 0, stride)
	// pivot makes column pc basic in row pr. Of columns [0, cols) and the
	// right-hand side it updates only the pivot row's nonzero ones, in the
	// rows whose pivot-column entry is nonzero (see the package doc);
	// columns from cols on go stale.
	pivot := func(obj []float64, pr, pc, cols int) {
		prow := tab[pr*stride : (pr+1)*stride]
		pv := prow[pc]
		nz = nz[:0]
		for j := 0; j < cols; j++ {
			if prow[j] != 0 {
				prow[j] /= pv
				nz = append(nz, j)
			}
		}
		if prow[width] != 0 {
			prow[width] /= pv
			nz = append(nz, width)
		}
		for i := 0; i < m; i++ {
			if i == pr {
				continue
			}
			r := tab[i*stride : (i+1)*stride]
			f := r[pc]
			if f == 0 {
				continue
			}
			for _, j := range nz {
				r[j] -= f * prow[j]
			}
		}
		if f := obj[pc]; f != 0 {
			for _, j := range nz {
				obj[j] -= f * prow[j]
			}
		}
		basis[pr] = pc
	}

	// runSimplex minimizes the reduced objective obj (length stride, last
	// entry is the negated current value) over the columns [0, cols).
	runSimplex := func(obj []float64, cols int) (Status, error) {
		for iter := 0; ; iter++ {
			if iter > iterLimit {
				return 0, ErrIterationLimit
			}
			// Bland: choose smallest-index column with negative reduced cost.
			pc := -1
			for j := 0; j < cols; j++ {
				if obj[j] < -eps {
					pc = j
					break
				}
			}
			if pc < 0 {
				return Optimal, nil
			}
			// Ratio test, Bland tie-break on basis variable index.
			pr := -1
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				if a := tab[i*stride+pc]; a > eps {
					ratio := tab[i*stride+width] / a
					if ratio < best-eps || (ratio < best+eps && (pr < 0 || basis[i] < basis[pr])) {
						best = ratio
						pr = i
					}
				}
			}
			if pr < 0 {
				return Unbounded, nil
			}
			pivot(obj, pr, pc, cols)
		}
	}

	// Phase 1: minimize sum of artificials.
	if nArt > 0 {
		obj1 := make([]float64, stride)
		for j := nReal; j < width; j++ {
			obj1[j] = 1
		}
		// Price out initial basis (artificials are basic with coefficient 1).
		for i := range p.Rows {
			if basis[i] >= nReal {
				row := tab[i*stride : (i+1)*stride]
				for j := range obj1 {
					obj1[j] -= row[j]
				}
			}
		}
		st, err := runSimplex(obj1, width)
		if err != nil {
			return Solution{}, err
		}
		if st == Unbounded {
			return Solution{}, errors.New("lp: phase-1 unbounded (internal error)")
		}
		// obj1[width] is -(current phase-1 value).
		if -obj1[width] > 1e-7 {
			return Solution{Status: Infeasible}, nil
		}
		// Drive any artificial still in the basis out (degenerate rows). A
		// row with no nonzero real column is a redundant constraint and
		// keeps its artificial, which is harmless.
		for i := 0; i < m; i++ {
			if basis[i] < nReal {
				continue
			}
			for j := 0; j < nReal; j++ {
				if math.Abs(tab[i*stride+j]) > eps {
					pivot(obj1, i, j, width)
					break
				}
			}
		}
	}

	// Phase 2: minimize the true objective over structural + slack columns.
	obj2 := make([]float64, stride)
	copy(obj2, p.Objective)
	// Price out the current basis.
	for i := 0; i < m; i++ {
		if basis[i] < n && obj2[basis[i]] != 0 {
			f := obj2[basis[i]]
			row := tab[i*stride : (i+1)*stride]
			for j := range obj2 {
				obj2[j] -= f * row[j]
			}
		}
	}
	st, err := runSimplex(obj2, nReal)
	if err != nil {
		return Solution{}, err
	}
	if st == Unbounded {
		return Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	for i, bv := range basis {
		if bv < n {
			x[bv] = tab[i*stride+width]
		}
	}
	var val float64
	for j := 0; j < n; j++ {
		val += p.Objective[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Value: val}, nil
}
