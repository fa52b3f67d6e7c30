package lp

import (
	"math"
	"math/rand"
	"testing"
)

// checkSame solves p with Solve and solveDense and requires the same
// outcome: both fail or neither does, and on success the same Status,
// every X[i] and Value equal under ==. It returns the reference outcome.
func checkSame(t *testing.T, name string, p *Problem) (Status, error) {
	t.Helper()
	got, gotErr := Solve(p)
	want, wantErr := solveDense(p)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: Solve error %v, dense error %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return 0, wantErr
	}
	if got.Status != want.Status || got.Value != want.Value || len(got.X) != len(want.X) {
		t.Fatalf("%s: Solve = %v value %v (%d vars), dense = %v value %v (%d vars)",
			name, got.Status, got.Value, len(got.X), want.Status, want.Value, len(want.X))
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("%s: X[%d] = %v, dense %v", name, i, got.X[i], want.X[i])
		}
	}
	return want.Status, nil
}

// hlpProblem builds the allocation LP of sched.HLPIndependent for tasks
// with CPU times p and GPU times q, row for row: variables x_0..x_{n-1}
// (CPU shares) and lambda; minimize lambda subject to the two class area
// rows, then per task x_i*p_i + (1-x_i)*q_i <= lambda and x_i <= 1.
func hlpProblem(p, q []float64, cpus, gpus int) *Problem {
	n := len(p)
	nv := n + 1
	obj := make([]float64, nv)
	obj[n] = 1
	cpu := Constraint{Coeffs: make([]float64, nv), Rel: LE}
	gpu := Constraint{Coeffs: make([]float64, nv), Rel: LE}
	var totalQ float64
	for i := range p {
		cpu.Coeffs[i] = p[i]
		gpu.Coeffs[i] = -q[i]
		totalQ += q[i]
	}
	cpu.Coeffs[n] = -float64(cpus)
	gpu.Coeffs[n] = -float64(gpus)
	gpu.Bound = -totalQ
	rows := []Constraint{cpu, gpu}
	for i := range p {
		c := Constraint{Coeffs: make([]float64, nv), Rel: LE, Bound: -q[i]}
		c.Coeffs[i] = p[i] - q[i]
		c.Coeffs[n] = -1
		u := Constraint{Coeffs: make([]float64, nv), Rel: LE, Bound: 1}
		u.Coeffs[i] = 1
		rows = append(rows, c, u)
	}
	return &Problem{Objective: obj, Rows: rows}
}

// areaProblem builds the LP of bounds.AreaBoundLP, row for row, including
// its forms for platforms without CPUs (x_i <= 0) or without GPUs
// (x_i >= 1).
func areaProblem(p, q []float64, cpus, gpus int) *Problem {
	n := len(p)
	nv := n + 1
	obj := make([]float64, nv)
	obj[n] = 1
	var rows []Constraint
	unit := func(i int, rel Relation, b float64) Constraint {
		c := Constraint{Coeffs: make([]float64, nv), Rel: rel, Bound: b}
		c.Coeffs[i] = 1
		return c
	}
	if cpus > 0 {
		c := Constraint{Coeffs: make([]float64, nv), Rel: LE}
		copy(c.Coeffs, p)
		c.Coeffs[n] = -float64(cpus)
		rows = append(rows, c)
	} else {
		for i := range p {
			rows = append(rows, unit(i, LE, 0))
		}
	}
	if gpus > 0 {
		c := Constraint{Coeffs: make([]float64, nv), Rel: LE}
		var total float64
		for i := range q {
			c.Coeffs[i] = -q[i]
			total += q[i]
		}
		c.Coeffs[n] = -float64(gpus)
		c.Bound = -total
		rows = append(rows, c)
	} else {
		for i := range p {
			rows = append(rows, unit(i, GE, 1))
		}
	}
	for i := range p {
		rows = append(rows, unit(i, LE, 1))
	}
	return &Problem{Objective: obj, Rows: rows}
}

// logNormalTimes draws n tasks the way the tournament does: CPU time
// uniform in [1, 51), acceleration factor exp(ln 2 + sigma*N(0,1)).
func logNormalTimes(n int, sigma float64, rng *rand.Rand) (p, q []float64) {
	p, q = make([]float64, n), make([]float64, n)
	for i := range p {
		p[i] = 1 + rng.Float64()*50
		q[i] = p[i] / math.Exp(math.Ln2+sigma*rng.NormFloat64())
	}
	return p, q
}

// tieTimes draws integer times 1-6 on both classes, so that many tasks
// tie on time and on acceleration factor and the LP is degenerate.
func tieTimes(n int, rng *rand.Rand) (p, q []float64) {
	p, q = make([]float64, n), make([]float64, n)
	for i := range p {
		p[i] = float64(1 + rng.Intn(6))
		q[i] = float64(1 + rng.Intn(6))
	}
	return p, q
}

// tournamentShapes are the (CPUs, GPUs) platforms of the full tournament
// grid.
var tournamentShapes = [][2]int{{1, 1}, {4, 1}, {8, 2}, {16, 4}, {20, 4}, {4, 4}}

// TestSolveMatchesDense holds Solve to the dense reference on the LPs HLP
// and the area bound build, and on small random programs that reach every
// outcome: optimal, infeasible, unbounded, and redundant equalities that
// leave an artificial basic after phase 1.
func TestSolveMatchesDense(t *testing.T) {
	optimal := func(t *testing.T, name string, p *Problem) {
		t.Helper()
		if st, err := checkSame(t, name, p); err != nil || st != Optimal {
			t.Fatalf("%s: %v, %v; want optimal", name, st, err)
		}
	}
	t.Run("hlp", func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		sizes := []int{1, 2, 3, 5, 8, 13, 40, 120}
		if testing.Short() {
			sizes = sizes[:6]
		}
		for _, sh := range tournamentShapes {
			for _, n := range sizes {
				p, q := logNormalTimes(n, []float64{0.25, 0.5, 1, 2}[rng.Intn(4)], rng)
				optimal(t, "lognormal", hlpProblem(p, q, sh[0], sh[1]))
				p, q = tieTimes(n, rng)
				optimal(t, "ties", hlpProblem(p, q, sh[0], sh[1]))
			}
		}
	})
	t.Run("area", func(t *testing.T) {
		rng := rand.New(rand.NewSource(62))
		shapes := append([][2]int{{0, 1}, {0, 4}, {1, 0}, {20, 0}}, tournamentShapes...)
		for _, sh := range shapes {
			for _, n := range []int{1, 2, 4, 9, 30} {
				p, q := logNormalTimes(n, 1, rng)
				optimal(t, "lognormal", areaProblem(p, q, sh[0], sh[1]))
				p, q = tieTimes(n, rng)
				optimal(t, "ties", areaProblem(p, q, sh[0], sh[1]))
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(63))
		var seen [3]int
		for k := 0; k < 3000; k++ {
			st, err := checkSame(t, "random", randomProblem(rng))
			if err != nil {
				t.Fatalf("random problem %d: %v", k, err)
			}
			seen[st]++
		}
		for st, c := range seen {
			if c == 0 {
				t.Errorf("no random problem ended %v; the generator no longer covers it", Status(st))
			}
		}
	})
}

// randomProblem draws a program of 1-6 variables and 1-6 rows that mixes
// LE, EQ and GE rows with small integer and fractional coefficients, many
// of them zero. A third of the programs then append one of their rows
// twice as an equality, the second copy scaled, so that phase 1 can end
// with an artificial basic in a row it cannot drive it out of.
func randomProblem(rng *rand.Rand) *Problem {
	val := func() float64 {
		switch r := rng.Intn(10); {
		case r < 4:
			return 0
		case r < 8:
			return float64(rng.Intn(7) - 3)
		default:
			return float64(rng.Intn(41)-20) / float64(1+rng.Intn(7))
		}
	}
	n, m := 1+rng.Intn(6), 1+rng.Intn(6)
	p := &Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = val()
	}
	for i := 0; i < m; i++ {
		c := Constraint{Coeffs: make([]float64, n), Rel: Relation(rng.Intn(3)), Bound: val()}
		for j := range c.Coeffs {
			c.Coeffs[j] = val()
		}
		p.Rows = append(p.Rows, c)
	}
	if rng.Intn(3) == 0 {
		src := p.Rows[rng.Intn(m)]
		k := float64(1 + rng.Intn(3))
		if rng.Intn(2) == 0 {
			k = -k
		}
		c := Constraint{Coeffs: make([]float64, n), Rel: EQ, Bound: k * src.Bound}
		for j, a := range src.Coeffs {
			c.Coeffs[j] = k * a
		}
		src.Rel = EQ
		p.Rows = append(p.Rows, src, c)
	}
	return p
}

// fuzzValues are the coefficients and bounds a fuzz byte decodes to:
// zeros, small integers, and fractions whose quotients round.
var fuzzValues = [16]float64{0, 0, 0, 1, -1, 2, -2, 3, -3, 0.5, 7, -7, 0.1, 1.0 / 3, 5, -0.25}

// maxFuzzRows bounds the rows one FuzzSolveMatchesDense input decodes.
const maxFuzzRows = 8

// fuzzProblem decodes a program from bytes, or returns nil if data is
// too short to hold one. The first byte gives the variable count
// (1 + b%6); the next that many bytes are the objective. Each row then
// takes 1 + n bytes: the first picks the relation (b%3) and the bound
// (fuzzValues[b/3%16]), the rest are coefficients (fuzzValues[b%16]).
func fuzzProblem(data []byte) *Problem {
	if len(data) < 2 {
		return nil
	}
	n := 1 + int(data[0]%6)
	data = data[1:]
	if len(data) < n {
		return nil
	}
	p := &Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = fuzzValues[data[j]%16]
	}
	data = data[n:]
	for len(data) >= 1+n && len(p.Rows) < maxFuzzRows {
		c := Constraint{Coeffs: make([]float64, n), Rel: Relation(data[0] % 3), Bound: fuzzValues[data[0]/3%16]}
		for j := range c.Coeffs {
			c.Coeffs[j] = fuzzValues[data[1+j]%16]
		}
		p.Rows = append(p.Rows, c)
		data = data[1+n:]
	}
	return p
}

// FuzzSolveMatchesDense requires Solve and the dense reference to agree
// on every program fuzzProblem decodes.
func FuzzSolveMatchesDense(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		if p == nil {
			t.Skip()
		}
		if _, err := checkSame(t, "fuzz", p); err != nil {
			t.Fatal(err)
		}
	})
}
