package workloads

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
)

func TestTable1AccelerationFactors(t *testing.T) {
	want := map[string]float64{
		"DPOTRF": 1.72,
		"DTRSM":  8.72,
		"DSYRK":  26.96,
		"DGEMM":  28.80,
	}
	got := Table1()
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s: accel = %v, want %v", name, g, w)
		}
	}
}

func TestKernelTask(t *testing.T) {
	tk := DGEMM.Task()
	if tk.Name != "DGEMM" || tk.CPUTime != DGEMM.CPUTime || tk.GPUTime != DGEMM.GPUTime {
		t.Errorf("Task() = %+v", tk)
	}
	if len(CholeskyKernels()) != 4 || len(QRKernels()) != 4 || len(LUKernels()) != 3 {
		t.Error("kernel family sizes wrong")
	}
}

func TestJitter(t *testing.T) {
	in := platform.Instance{{ID: 0, CPUTime: 10, GPUTime: 1}}
	rng := rand.New(rand.NewSource(3))
	out := Jitter(in, 0.1, rng)
	if out[0].CPUTime == 10 && out[0].GPUTime == 1 {
		t.Error("jitter did not perturb times")
	}
	if in[0].CPUTime != 10 {
		t.Error("jitter mutated the input")
	}
	if err := out.Validate(); err != nil {
		t.Error(err)
	}
	// Zero sigma is the identity.
	same := Jitter(in, 0, rng)
	if same[0].CPUTime != 10 || same[0].GPUTime != 1 {
		t.Error("sigma=0 should not change times")
	}
}

func choleskyCounts(N int) (potrf, trsm, syrk, gemm int) {
	return N, N * (N - 1) / 2, N * (N - 1) / 2, N * (N - 1) * (N - 2) / 6
}

func TestCholeskyShape(t *testing.T) {
	for _, N := range []int{1, 2, 3, 5, 8} {
		g := Cholesky(N)
		if err := g.Validate(); err != nil {
			t.Fatalf("N=%d: %v", N, err)
		}
		p, tr, sy, ge := choleskyCounts(N)
		if g.Len() != p+tr+sy+ge {
			t.Errorf("N=%d: %d tasks, want %d", N, g.Len(), p+tr+sy+ge)
		}
		counts := map[string]int{}
		for _, task := range g.Tasks() {
			counts[task.Name[:4]]++
		}
		if counts["POTR"] != p || counts["TRSM"] != tr || counts["SYRK"] != sy || counts["GEMM"] != ge {
			t.Errorf("N=%d: kernel counts %v", N, counts)
		}
	}
}

func TestCholeskyCriticalStructure(t *testing.T) {
	// The final POTRF must be a sink-reachable task depending on the whole
	// elimination; with N=2: POTRF(0) -> TRSM(1,0) -> SYRK(1,1) -> POTRF(1).
	g := Cholesky(2)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("N=2 should have 4 tasks, got %d", len(order))
	}
	last := order[len(order)-1]
	if g.Task(last).Name != "POTRF(1,1,1)" {
		t.Errorf("last task = %s, want POTRF(1,1,1)", g.Task(last).Name)
	}
	if len(g.Sinks()) != 1 {
		t.Errorf("Cholesky(2) should have exactly one sink, got %v", g.Sinks())
	}
}

func TestQRShape(t *testing.T) {
	for _, N := range []int{1, 2, 3, 5} {
		g := QR(N)
		if err := g.Validate(); err != nil {
			t.Fatalf("N=%d: %v", N, err)
		}
		geqrt := N
		ormqr := N * (N - 1) / 2
		tsqrt := N * (N - 1) / 2
		tsmqr := (N - 1) * N * (2*N - 1) / 6
		if g.Len() != geqrt+ormqr+tsqrt+tsmqr {
			t.Errorf("N=%d: %d tasks, want %d", N, g.Len(), geqrt+ormqr+tsqrt+tsmqr)
		}
	}
}

func TestLUShape(t *testing.T) {
	for _, N := range []int{1, 2, 3, 5} {
		g := LU(N)
		if err := g.Validate(); err != nil {
			t.Fatalf("N=%d: %v", N, err)
		}
		getrf := N
		trsm := N * (N - 1)
		gemm := (N - 1) * N * (2*N - 1) / 6
		if g.Len() != getrf+trsm+gemm {
			t.Errorf("N=%d: %d tasks, want %d", N, g.Len(), getrf+trsm+gemm)
		}
	}
}

func TestFactorizationChainsAreSequential(t *testing.T) {
	// With one worker of each class the DAG must still be executable; a
	// quick sanity check that the builders produce connected elimination
	// chains: the critical path with min weights grows with N.
	for _, f := range Factorizations() {
		g4, err := Build(f, 4)
		if err != nil {
			t.Fatal(err)
		}
		g8, err := Build(f, 8)
		if err != nil {
			t.Fatal(err)
		}
		pl := platform.NewPlatform(1, 1)
		cp4, err := g4.CriticalPath(dag.WeightMin, pl)
		if err != nil {
			t.Fatal(err)
		}
		cp8, err := g8.CriticalPath(dag.WeightMin, pl)
		if err != nil {
			t.Fatal(err)
		}
		if cp8 <= cp4 {
			t.Errorf("%s: critical path did not grow with N: %v vs %v", f, cp4, cp8)
		}
	}
}

// TestBuildUnknown: Build and IndependentTasks reject an unknown
// factorization, and a tile count below one, with an error rather than a
// panic in the generators.
func TestBuildUnknown(t *testing.T) {
	if _, err := Build(Factorization("nope"), 4); err == nil {
		t.Error("unknown factorization accepted")
	}
	if _, err := IndependentTasks(Factorization("nope"), 4); err == nil {
		t.Error("unknown factorization accepted")
	}
	for _, f := range Factorizations() {
		for _, N := range []int{0, -1} {
			if g, err := Build(f, N); err == nil {
				t.Errorf("Build(%s, %d) = %d tasks, want an error", f, N, g.Len())
			}
			if in, err := IndependentTasks(f, N); err == nil {
				t.Errorf("IndependentTasks(%s, %d) = %d tasks, want an error", f, N, len(in))
			}
		}
	}
}

func TestIndependentTasks(t *testing.T) {
	in, err := IndependentTasks(FactCholesky, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := Cholesky(4)
	if len(in) != g.Len() {
		t.Errorf("independent set size %d, want %d", len(in), g.Len())
	}
	if err := in.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateTilesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for N=0")
		}
	}()
	Cholesky(0)
}

func TestTheorem8Instance(t *testing.T) {
	in, pl := Theorem8Instance()
	if pl.CPUs != 1 || pl.GPUs != 1 {
		t.Errorf("platform = %v", pl)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, task := range in {
		if math.Abs(task.Accel()-Phi) > 1e-12 {
			t.Errorf("task %s accel %v, want phi", task.Name, task.Accel())
		}
	}
}

func TestTheorem11InstanceStructure(t *testing.T) {
	m, K := 10, 4
	in, pl := Theorem11Instance(m, K)
	if pl.CPUs != m || pl.GPUs != 1 {
		t.Errorf("platform = %v", pl)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(in) != K+2+m*K {
		t.Errorf("size %d, want %d", len(in), K+2+m*K)
	}
	// Total CPU filler work = m*x: every CPU busy until x.
	x := float64(m-1) / (float64(m) + Phi)
	var t3 float64
	for _, task := range in {
		if task.Name == "T3" {
			t3 += task.CPUTime
		}
	}
	if math.Abs(t3-float64(m)*x) > 1e-9 {
		t.Errorf("T3 total %v, want %v", t3, float64(m)*x)
	}
}

func TestTheorem11Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for m=1")
		}
	}()
	Theorem11Instance(1, 1)
}

func TestTheorem14R(t *testing.T) {
	// r solves n/r + 2n - 1 = n*r/3.
	for _, n := range []int{6, 12, 60, 600} {
		r := Theorem14R(n)
		lhs := float64(n)/r + 2*float64(n) - 1
		rhs := float64(n) * r / 3
		if math.Abs(lhs-rhs) > 1e-6 {
			t.Errorf("n=%d: r=%v does not satisfy the equation (%v vs %v)", n, r, lhs, rhs)
		}
	}
	// Limit: 3 + 2*sqrt(3).
	if r := Theorem14R(60000); math.Abs(r-(3+2*math.Sqrt(3))) > 1e-3 {
		t.Errorf("r limit = %v, want %v", r, 3+2*math.Sqrt(3))
	}
}

func TestTheorem14T2SetProperties(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		n := 6 * k
		times := Theorem14T2GPUTimes(k)
		if len(times) != 2*n+1 {
			t.Fatalf("k=%d: %d tasks, want %d", k, len(times), 2*n+1)
		}
		var total float64
		for _, d := range times {
			total += d
		}
		// Total work = n*n (fits exactly on n machines in time n).
		if math.Abs(total-float64(n*n)) > 1e-9 {
			t.Errorf("k=%d: total work %v, want %v", k, total, n*n)
		}
		// Smallest task is 2k = Cmax/3.
		min := math.Inf(1)
		for _, d := range times {
			min = math.Min(min, d)
		}
		if min != float64(2*k) {
			t.Errorf("k=%d: min length %v, want %v", k, min, 2*k)
		}
	}
}

func TestTheorem14GoodPacking(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		n := 6 * k
		packing := Theorem14T2GoodPacking(k)
		if len(packing) != n {
			t.Fatalf("k=%d: %d machines, want %d", k, len(packing), n)
		}
		// Each machine's load is exactly n, and the multiset of lengths
		// matches Theorem14T2GPUTimes.
		counts := map[float64]int{}
		for _, mach := range packing {
			var load float64
			for _, d := range mach {
				load += d
				counts[d]++
			}
			if math.Abs(load-float64(n)) > 1e-9 {
				t.Errorf("k=%d: machine load %v, want %v", k, load, n)
			}
		}
		for _, d := range Theorem14T2GPUTimes(k) {
			counts[d]--
		}
		for d, c := range counts {
			if c != 0 {
				t.Errorf("k=%d: length %v count mismatch %d", k, d, c)
			}
		}
	}
}

func TestTheorem14InstanceStructure(t *testing.T) {
	k, K := 1, 2
	in, pl := Theorem14Instance(k, K)
	n := 6 * k
	if pl.GPUs != n || pl.CPUs != n*n {
		t.Errorf("platform = %v", pl)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	want := n*K + n + (2*n + 1) + n*n*K
	if len(in) != want {
		t.Errorf("size %d, want %d", len(in), want)
	}
	r := Theorem14R(n)
	lo, hi := in.AccelRange()
	if math.Abs(hi-r) > 1e-9 || math.Abs(lo-1) > 1e-9 {
		t.Errorf("accel range [%v, %v], want [1, %v]", lo, hi, r)
	}
}

func TestWorstCasePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"T2 times":     func() { Theorem14T2GPUTimes(0) },
		"good packing": func() { Theorem14T2GoodPacking(0) },
		"instance":     func() { Theorem14Instance(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	uni := UniformInstance(50, 1, 10, 0.5, 20, rng)
	if len(uni) != 50 {
		t.Fatalf("uniform size %d", len(uni))
	}
	if err := uni.Validate(); err != nil {
		t.Fatal(err)
	}
	lo, hi := uni.AccelRange()
	if lo < 0.5-1e-9 || hi > 20+1e-9 {
		t.Errorf("uniform accel range [%v, %v] outside [0.5, 20]", lo, hi)
	}
	bim := BimodalInstance(100, 0.7, rng)
	if err := bim.Validate(); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, task := range bim {
		names[task.Name] = true
	}
	if !names["update"] || !names["panel"] {
		t.Error("bimodal should produce both modes")
	}
	logn := LogNormalAccelInstance(100, 1, 1, rng)
	if err := logn.Validate(); err != nil {
		t.Fatal(err)
	}
}
