package lp

import (
	"errors"
	"math"
)

// solveDense is Solve as it was before the flat tableau: a [][]float64
// tableau built from a normalized copy of every row, and a pivot that
// rewrites every column of every row. It is the reference that
// TestSolveMatchesDense and FuzzSolveMatchesDense hold Solve to.
func solveDense(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	n := len(p.Objective)
	m := len(p.Rows)

	// Normalize to equality form with slack/surplus variables, all rows with
	// non-negative right-hand side.
	type rowT struct {
		a   []float64
		b   float64
		rel Relation
	}
	rows := make([]rowT, m)
	for i, r := range p.Rows {
		a := append([]float64(nil), r.Coeffs...)
		b := r.Bound
		rel := r.Rel
		if b < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			b = -b
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows[i] = rowT{a: a, b: b, rel: rel}
	}

	// Count slacks/surpluses and artificials.
	nSlack := 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	// Tableau columns: n structural + nSlack + m artificial (one per row; for
	// LE rows with b>=0 the slack can serve as the initial basis and the
	// artificial column is skipped).
	totalExtra := nSlack
	artCol := make([]int, m) // artificial column index per row, -1 if none
	slackCol := make([]int, m)
	col := n
	for i, r := range rows {
		slackCol[i] = -1
		if r.rel != EQ {
			slackCol[i] = col
			col++
		}
		artCol[i] = -1
	}
	for i, r := range rows {
		if r.rel == LE {
			continue // slack is initial basis
		}
		artCol[i] = col
		col++
		totalExtra++
	}
	width := n + totalExtra

	// Build tableau rows.
	tab := make([][]float64, m)
	basis := make([]int, m)
	for i, r := range rows {
		tr := make([]float64, width+1)
		copy(tr, r.a)
		if slackCol[i] >= 0 {
			if r.rel == LE {
				tr[slackCol[i]] = 1
			} else { // GE: surplus
				tr[slackCol[i]] = -1
			}
		}
		if artCol[i] >= 0 {
			tr[artCol[i]] = 1
			basis[i] = artCol[i]
		} else {
			basis[i] = slackCol[i]
		}
		tr[width] = r.b
		tab[i] = tr
	}

	pivot := func(obj []float64, pr, pc int) {
		pv := tab[pr][pc]
		for j := range tab[pr] {
			tab[pr][j] /= pv
		}
		for i := range tab {
			if i == pr {
				continue
			}
			f := tab[i][pc]
			if f == 0 {
				continue
			}
			for j := range tab[i] {
				tab[i][j] -= f * tab[pr][j]
			}
		}
		f := obj[pc]
		if f != 0 {
			for j := range obj {
				obj[j] -= f * tab[pr][j]
			}
		}
		basis[pr] = pc
	}

	// runSimplex minimizes the reduced objective obj (length width+1, last
	// entry is the negated current value). allowed limits eligible columns.
	runSimplex := func(obj []float64, allowed func(int) bool) Status {
		for iter := 0; ; iter++ {
			if iter > 200000 {
				// Bland's rule guarantees termination; this is a hard backstop.
				panic("lp: simplex iteration limit exceeded")
			}
			// Bland: choose smallest-index column with negative reduced cost.
			pc := -1
			for j := 0; j < width; j++ {
				if allowed != nil && !allowed(j) {
					continue
				}
				if obj[j] < -eps {
					pc = j
					break
				}
			}
			if pc < 0 {
				return Optimal
			}
			// Ratio test, Bland tie-break on basis variable index.
			pr := -1
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				if tab[i][pc] > eps {
					ratio := tab[i][width] / tab[i][pc]
					if ratio < best-eps || (ratio < best+eps && (pr < 0 || basis[i] < basis[pr])) {
						best = ratio
						pr = i
					}
				}
			}
			if pr < 0 {
				return Unbounded
			}
			pivot(obj, pr, pc)
		}
	}

	// Phase 1: minimize sum of artificials.
	needPhase1 := false
	for i := range rows {
		if artCol[i] >= 0 {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		obj1 := make([]float64, width+1)
		for i := range rows {
			if artCol[i] >= 0 {
				obj1[artCol[i]] = 1
			}
		}
		// Price out initial basis (artificials are basic with coefficient 1).
		for i := range rows {
			if artCol[i] >= 0 {
				for j := range obj1 {
					obj1[j] -= tab[i][j]
				}
			}
		}
		st := runSimplex(obj1, nil)
		if st == Unbounded {
			return Solution{}, errors.New("lp: phase-1 unbounded (internal error)")
		}
		// obj1[width] is -(current phase-1 value).
		if -obj1[width] > 1e-7 {
			return Solution{Status: Infeasible}, nil
		}
		// Drive any artificial still in the basis out (degenerate rows).
		for i := 0; i < m; i++ {
			if basisIsArtificial(basis[i], n, nSlack) {
				moved := false
				for j := 0; j < n+nSlack; j++ {
					if math.Abs(tab[i][j]) > eps {
						pivot(obj1, i, j)
						moved = true
						break
					}
				}
				if !moved {
					// Row is all zeros: redundant constraint; harmless.
					continue
				}
			}
		}
	}

	// Phase 2: minimize the true objective over structural + slack columns.
	obj2 := make([]float64, width+1)
	copy(obj2, p.Objective)
	// Price out the current basis.
	for i := range tab {
		if basis[i] < n && obj2[basis[i]] != 0 {
			f := obj2[basis[i]]
			for j := range obj2 {
				obj2[j] -= f * tab[i][j]
			}
		}
	}
	allowed := func(j int) bool { return !basisIsArtificial(j, n, nSlack) }
	st := runSimplex(obj2, allowed)
	if st == Unbounded {
		return Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	for i, bv := range basis {
		if bv < n {
			x[bv] = tab[i][width]
		}
	}
	var val float64
	for j := 0; j < n; j++ {
		val += p.Objective[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Value: val}, nil
}

// basisIsArtificial reports whether column j is an artificial column.
func basisIsArtificial(j, n, nSlack int) bool { return j >= n+nSlack }
