package lp

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestRelationStatusStrings(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "==" || GE.String() != ">=" {
		t.Error("relation strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
	if Relation(9).String() == "" || Status(9).String() == "" {
		t.Error("unknown enum strings empty")
	}
}

func TestValidate(t *testing.T) {
	if _, err := Solve(&Problem{}); err == nil {
		t.Error("empty objective should error")
	}
	p := &Problem{
		Objective: []float64{1, 2},
		Rows:      []Constraint{{Coeffs: []float64{1}, Rel: LE, Bound: 1}},
	}
	if _, err := Solve(p); err == nil {
		t.Error("dimension mismatch should error")
	}
	p2 := &Problem{
		Objective: []float64{1},
		Rows:      []Constraint{{Coeffs: []float64{1}, Rel: LE, Bound: math.NaN()}},
	}
	if _, err := Solve(p2); err == nil {
		t.Error("NaN bound should error")
	}
}

// TestValidateNonFinite pins that a NaN or infinite objective or
// constraint coefficient is rejected with an error naming where it is,
// rather than solved into a wrong status or a NaN value.
func TestValidateNonFinite(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name string
		obj  []float64
		rows [][]float64
		want string
	}{
		{"nan coefficient", []float64{1, 1}, [][]float64{{1, 1}, {math.NaN(), 1}}, "row 1 column 0"},
		{"nan objective", []float64{1, math.NaN()}, [][]float64{{1, 1}}, "objective column 1"},
		{"+inf coefficient", []float64{-1, 0}, [][]float64{{1, inf}}, "row 0 column 1"},
		{"-inf coefficient", []float64{1, 1}, [][]float64{{1, 1}, {1, 1}, {0, -inf}}, "row 2 column 1"},
		{"+inf objective", []float64{inf}, [][]float64{{1}}, "objective column 0"},
		{"-inf objective", []float64{0, -inf}, [][]float64{{1, 1}}, "objective column 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Problem{Objective: tc.obj}
			for _, c := range tc.rows {
				p.Rows = append(p.Rows, Constraint{Coeffs: c, Rel: LE, Bound: 1})
			}
			sol, err := Solve(p)
			if err == nil {
				t.Fatalf("Solve = %v value %v, want an error", sol.Status, sol.Value)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestIterationLimit lowers the pivot backstop so that each phase hits
// it, and requires ErrIterationLimit rather than a panic.
func TestIterationLimit(t *testing.T) {
	defer func(old int) { iterLimit = old }(iterLimit)
	iterLimit = 0
	for _, tc := range []struct {
		name string
		p    *Problem
	}{
		// Two pivots in phase 2: no artificials.
		{"phase 2", &Problem{
			Objective: []float64{-1, -1},
			Rows: []Constraint{
				{Coeffs: []float64{1, 0}, Rel: LE, Bound: 2},
				{Coeffs: []float64{0, 1}, Rel: LE, Bound: 3},
			},
		}},
		// Two pivots in phase 1 to bring both GE rows to feasibility.
		{"phase 1", &Problem{
			Objective: []float64{1, 1},
			Rows: []Constraint{
				{Coeffs: []float64{1, 0}, Rel: GE, Bound: 2},
				{Coeffs: []float64{0, 1}, Rel: GE, Bound: 3},
			},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := Solve(tc.p)
			if !errors.Is(err, ErrIterationLimit) {
				t.Fatalf("Solve = %v, %v; want ErrIterationLimit", sol.Status, err)
			}
		})
	}
}

func TestSimpleLE(t *testing.T) {
	// max x1 + x2 s.t. x1 <= 2, x2 <= 3  => minimize -(x1+x2) = -5.
	p := &Problem{
		Objective: []float64{-1, -1},
		Rows: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, Bound: 2},
			{Coeffs: []float64{0, 1}, Rel: LE, Bound: 3},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-(-5)) > 1e-9 {
		t.Fatalf("got %v value %v, want optimal -5", sol.Status, sol.Value)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-3) > 1e-9 {
		t.Errorf("X = %v, want [2 3]", sol.X)
	}
}

func TestEquality(t *testing.T) {
	// min x1 + 2 x2 s.t. x1 + x2 == 4, x1 <= 1 => x = (1, 3), value 7.
	p := &Problem{
		Objective: []float64{1, 2},
		Rows: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: EQ, Bound: 4},
			{Coeffs: []float64{1, 0}, Rel: LE, Bound: 1},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-7) > 1e-9 {
		t.Fatalf("value = %v, want 7", sol.Value)
	}
}

func TestGE(t *testing.T) {
	// min 3x1 + 2x2 s.t. x1 + x2 >= 4, x1 >= 1 => x = (1,3), value 9.
	p := &Problem{
		Objective: []float64{3, 2},
		Rows: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: GE, Bound: 4},
			{Coeffs: []float64{1, 0}, Rel: GE, Bound: 1},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-9) > 1e-9 {
		t.Fatalf("value = %v, want 9 (X=%v)", sol.Value, sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		Objective: []float64{1},
		Rows: []Constraint{
			{Coeffs: []float64{1}, Rel: GE, Bound: 5},
			{Coeffs: []float64{1}, Rel: LE, Bound: 1},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x1 with only x1 >= 0: unbounded below.
	p := &Problem{
		Objective: []float64{-1},
		Rows: []Constraint{
			{Coeffs: []float64{1}, Rel: GE, Bound: 1},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeBoundNormalization(t *testing.T) {
	// x1 - x2 <= -2  (i.e. x2 - x1 >= 2), min x2 => x2 = 2 at x1 = 0.
	p := &Problem{
		Objective: []float64{0, 1},
		Rows: []Constraint{
			{Coeffs: []float64{1, -1}, Rel: LE, Bound: -2},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-2) > 1e-9 {
		t.Fatalf("value = %v (X=%v), want 2", sol.Value, sol.X)
	}
}

func TestDegenerateRedundantRows(t *testing.T) {
	// Redundant equality pair should not break phase 1.
	p := &Problem{
		Objective: []float64{1, 1},
		Rows: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: EQ, Bound: 2},
			{Coeffs: []float64{2, 2}, Rel: EQ, Bound: 4},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-2) > 1e-9 {
		t.Fatalf("value = %v, want 2", sol.Value)
	}
}

// TestKnownProductionPlan is the classic two-product LP:
// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at (2, 6).
func TestKnownProductionPlan(t *testing.T) {
	p := &Problem{
		Objective: []float64{-3, -5},
		Rows: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, Bound: 4},
			{Coeffs: []float64{0, 2}, Rel: LE, Bound: 12},
			{Coeffs: []float64{3, 2}, Rel: LE, Bound: 18},
		},
	}
	sol := solveOK(t, p)
	if math.Abs(sol.Value-(-36)) > 1e-9 {
		t.Fatalf("value = %v, want -36", sol.Value)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-6) > 1e-9 {
		t.Errorf("X = %v, want (2,6)", sol.X)
	}
}

// Property: for random feasible LE problems (b >= 0), the solver returns a
// feasible solution with non-negative variables and objective no worse than
// the zero vector (which is feasible).
func TestRandomFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		p := &Problem{Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.Float64()*4 - 2
		}
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), Rel: LE, Bound: rng.Float64() * 10}
			for j := range c.Coeffs {
				c.Coeffs[j] = rng.Float64() * 3
			}
			p.Rows = append(p.Rows, c)
		}
		// Add box constraints so the problem is bounded.
		for j := 0; j < n; j++ {
			c := Constraint{Coeffs: make([]float64, n), Rel: LE, Bound: 10}
			c.Coeffs[j] = 1
			p.Rows = append(p.Rows, c)
		}
		sol, err := Solve(p)
		if err != nil || sol.Status != Optimal {
			return false
		}
		if sol.Value > 1e-9 { // zero vector has value 0 and is feasible
			return false
		}
		for j, v := range sol.X {
			if v < -1e-9 {
				return false
			}
			_ = j
		}
		// Check feasibility of every row.
		for _, row := range p.Rows {
			var lhs float64
			for j := range row.Coeffs {
				lhs += row.Coeffs[j] * sol.X[j]
			}
			if lhs > row.Bound+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
