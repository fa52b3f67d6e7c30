package bounds

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/platform"
)

func task(id int, p, q float64) platform.Task {
	return platform.Task{ID: id, CPUTime: p, GPUTime: q}
}

func TestAreaEmptyInstance(t *testing.T) {
	sol, err := Area(nil, platform.NewPlatform(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Bound != 0 {
		t.Errorf("Bound = %v, want 0", sol.Bound)
	}
}

func TestAreaInvalidInputs(t *testing.T) {
	if _, err := Area(platform.Instance{task(0, -1, 1)}, platform.NewPlatform(1, 1)); err == nil {
		t.Error("invalid task should error")
	}
	if _, err := Area(platform.Instance{task(0, 1, 1)}, platform.Platform{}); err == nil {
		t.Error("empty platform should error")
	}
	if _, err := AreaBoundLP(platform.Instance{task(0, -1, 1)}, platform.NewPlatform(1, 1)); err == nil {
		t.Error("LP with invalid task should error")
	}
	if _, err := AreaBoundLP(platform.Instance{task(0, 1, 1)}, platform.Platform{}); err == nil {
		t.Error("LP with empty platform should error")
	}
}

func TestAreaSingleClassPlatforms(t *testing.T) {
	in := platform.Instance{task(0, 4, 1), task(1, 6, 3)}
	cpuOnly, err := AreaBound(in, platform.NewPlatform(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if cpuOnly != 5 { // (4+6)/2
		t.Errorf("CPU-only bound = %v, want 5", cpuOnly)
	}
	gpuOnly, err := AreaBound(in, platform.NewPlatform(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if gpuOnly != 2 { // (1+3)/2
		t.Errorf("GPU-only bound = %v, want 2", gpuOnly)
	}
}

func TestAreaBothClassesBalance(t *testing.T) {
	// Two identical tasks, 1 CPU + 1 GPU, p=q=1: divisible load splits so
	// both classes finish at time 1.
	in := platform.Instance{task(0, 1, 1), task(1, 1, 1)}
	sol, err := Area(in, platform.NewPlatform(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Bound-1) > 1e-12 {
		t.Errorf("Bound = %v, want 1", sol.Bound)
	}
}

func TestAreaKnownSplit(t *testing.T) {
	// Theorem 8 instance: X(p=phi,q=1), Y(p=1,q=1/phi) on (1,1).
	phi := (1 + math.Sqrt(5)) / 2
	in := platform.Instance{task(0, phi, 1), task(1, 1, 1/phi)}
	sol, err := Area(in, platform.NewPlatform(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Optimal integral schedule has makespan 1 (X on GPU, Y on CPU); the
	// area bound must be <= 1 and positive.
	if sol.Bound <= 0 || sol.Bound > 1+1e-12 {
		t.Errorf("Bound = %v, want in (0,1]", sol.Bound)
	}
}

func TestAreaLemma1Equality(t *testing.T) {
	// Lemma 1: in the area solution both classes finish at the same time
	// (whenever both classes receive work).
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(3)
		var in platform.Instance
		T := 3 + rng.Intn(10)
		for i := 0; i < T; i++ {
			p := 1 + rng.Float64()*20
			q := 1 + rng.Float64()*20
			in = append(in, task(i, p, q))
		}
		pl := platform.NewPlatform(m, n)
		sol, err := Area(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		var cpuW, gpuW float64
		for _, tk := range in {
			x := sol.CPUFraction[tk.ID]
			cpuW += x * tk.CPUTime
			gpuW += (1 - x) * tk.GPUTime
		}
		ct := cpuW / float64(m)
		gt := gpuW / float64(n)
		if cpuW > 1e-12 && gpuW > 1e-12 {
			if math.Abs(ct-gt) > 1e-6*math.Max(1, sol.Bound) {
				t.Errorf("trial %d: class times differ: CPU %v GPU %v", trial, ct, gt)
			}
		}
		if math.Abs(math.Max(ct, gt)-sol.Bound) > 1e-6*math.Max(1, sol.Bound) {
			t.Errorf("trial %d: bound %v does not match max class time %v", trial, sol.Bound, math.Max(ct, gt))
		}
	}
}

func TestAreaLemma2SplitStructure(t *testing.T) {
	// Lemma 2: there is a threshold k such that tasks with rho > k are fully
	// on GPU and tasks with rho < k fully on CPU.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var in platform.Instance
		T := 4 + rng.Intn(12)
		for i := 0; i < T; i++ {
			in = append(in, task(i, 0.5+rng.Float64()*10, 0.5+rng.Float64()*10))
		}
		pl := platform.NewPlatform(1+rng.Intn(5), 1+rng.Intn(3))
		sol, err := Area(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(sol.SplitAccel) {
			continue // one class got everything; nothing to check
		}
		for _, tk := range in {
			x := sol.CPUFraction[tk.ID]
			if x < 1e-12 && tk.Accel() < sol.SplitAccel-1e-9 {
				t.Errorf("trial %d: task rho=%v fully on GPU but below split %v", trial, tk.Accel(), sol.SplitAccel)
			}
			if x > 1-1e-12 && tk.Accel() > sol.SplitAccel+1e-9 {
				t.Errorf("trial %d: task rho=%v fully on CPU but above split %v", trial, tk.Accel(), sol.SplitAccel)
			}
		}
	}
}

// Property: the combinatorial area bound agrees with the simplex LP.
func TestAreaMatchesLPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		T := 1 + rng.Intn(12)
		var in platform.Instance
		for i := 0; i < T; i++ {
			in = append(in, task(i, 0.1+rng.Float64()*10, 0.1+rng.Float64()*10))
		}
		pl := platform.NewPlatform(1+rng.Intn(4), 1+rng.Intn(3))
		fast, err := AreaBound(in, pl)
		if err != nil {
			return false
		}
		slow, err := AreaBoundLP(in, pl)
		if err != nil {
			return false
		}
		return math.Abs(fast-slow) <= 1e-6*math.Max(1, slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAreaMatchesLPSingleClass(t *testing.T) {
	in := platform.Instance{task(0, 4, 1), task(1, 6, 3)}
	for _, pl := range []platform.Platform{platform.NewPlatform(2, 0), platform.NewPlatform(0, 2)} {
		fast, err := AreaBound(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := AreaBoundLP(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-slow) > 1e-6 {
			t.Errorf("%v: fast %v != LP %v", pl, fast, slow)
		}
	}
}

func TestAreaBoundLPEmpty(t *testing.T) {
	v, err := AreaBoundLP(nil, platform.NewPlatform(1, 1))
	if err != nil || v != 0 {
		t.Errorf("empty LP bound = %v, %v", v, err)
	}
}

func TestMaxMinAndLower(t *testing.T) {
	in := platform.Instance{task(0, 10, 3), task(1, 1, 8)}
	if got := MaxMinBound(in); got != 3 {
		t.Errorf("MaxMinBound = %v, want 3", got)
	}
	// On a huge platform the area bound vanishes, so Lower = MaxMin.
	lo, err := Lower(in, platform.NewPlatform(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if lo != 3 {
		t.Errorf("Lower = %v, want 3", lo)
	}
}

func TestDAGLower(t *testing.T) {
	// Chain of 4 tasks with min duration 2: critical path 8 dominates the
	// area bound on a large platform.
	g := dag.Chain(4, platform.Task{CPUTime: 5, GPUTime: 2})
	pl := platform.NewPlatform(10, 10)
	lb, err := DAGLower(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 8 {
		t.Errorf("DAGLower = %v, want 8", lb)
	}
	// On a tiny platform the area bound dominates: 1 CPU + 1 GPU,
	// area = crossing of divisible load; at least total GPU work / 1 if all
	// tasks go to GPU side... just assert DAGLower >= both components.
	pl2 := platform.NewPlatform(1, 1)
	lb2, err := DAGLower(g, pl2)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := AreaBound(g.Tasks(), pl2)
	cp, _ := g.CriticalPath(dag.WeightMin, pl2)
	if lb2 < ab-1e-12 || lb2 < cp-1e-12 {
		t.Errorf("DAGLower %v below components area=%v cp=%v", lb2, ab, cp)
	}
}

func TestDAGLowerCycleError(t *testing.T) {
	g := dag.New()
	a := g.AddTask(platform.Task{CPUTime: 1, GPUTime: 1})
	b := g.AddTask(platform.Task{CPUTime: 1, GPUTime: 1})
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := DAGLower(g, platform.NewPlatform(1, 1)); err == nil {
		t.Error("cyclic graph should error")
	}
}

// refArea is Area as it stood before AreaBound stopped building the
// per-task map, kept verbatim except that the acceleration sort is the
// reflection-based sort.SliceStable that Instance.SortByAccelDesc used
// then.
func refArea(in platform.Instance, pl platform.Platform) (AreaSolution, error) {
	if err := pl.Validate(); err != nil {
		return AreaSolution{}, err
	}
	if err := in.Validate(); err != nil {
		return AreaSolution{}, err
	}
	sol := AreaSolution{CPUFraction: make(map[int]float64, len(in)), SplitAccel: math.NaN()}
	if len(in) == 0 {
		return sol, nil
	}
	m, n := float64(pl.CPUs), float64(pl.GPUs)
	switch {
	case pl.GPUs == 0:
		for _, t := range in {
			sol.CPUFraction[t.ID] = 1
		}
		sol.Bound = in.TotalTime(platform.CPU) / m
		return sol, nil
	case pl.CPUs == 0:
		for _, t := range in {
			sol.CPUFraction[t.ID] = 0
		}
		sol.Bound = in.TotalTime(platform.GPU) / n
		return sol, nil
	}

	sorted := in.Clone()
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Accel() > sorted[j].Accel()
	})
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
			sol.Bound = math.Max(gpuTime, cpuTime)
			for i := 0; i < k; i++ {
				sol.CPUFraction[sorted[i].ID] = 0
			}
			sol.CPUFraction[tk.ID] = 1 - f
			for i := k + 1; i < len(sorted); i++ {
				sol.CPUFraction[sorted[i].ID] = 1
			}
			sol.SplitAccel = tk.Accel()
			return sol, nil
		}
		prefixQ += tk.GPUTime
	}
	// Everything on the GPUs and they still finish before the (empty) CPUs
	// would: bound is the full GPU load.
	for _, t := range sorted {
		sol.CPUFraction[t.ID] = 0
	}
	sol.Bound = prefixQ / n
	return sol, nil
}

// sameBits compares bit patterns, so -0 and +0 differ and NaN equals
// itself.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestAreaMatchesReference holds Area, AreaBound and Lower to refArea bit
// for bit on seeded instances: one-class and two-class platforms, times
// drawn from small integers (so acceleration factors tie), wide random
// floats, subnormals, and values near the float64 maximum (so sums
// overflow and the walk can run past every task).
func TestAreaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	times := []func() float64{
		func() float64 { return float64(1 + rng.Intn(4)) },
		func() float64 { return math.Exp(rng.Float64()*20 - 10) },
		func() float64 { return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000)) },
		func() float64 { return math.MaxFloat64 / float64(1+rng.Intn(4)) },
	}
	var exhausted, split, oneClass int
	for trial := 0; trial < 3000; trial++ {
		m, n := rng.Intn(5), rng.Intn(4)
		if m+n == 0 {
			m = 1
		}
		pl := platform.NewPlatform(m, n)
		in := make(platform.Instance, rng.Intn(14))
		for i := range in {
			in[i] = task(rng.Intn(1000)*len(in)+i, times[rng.Intn(len(times))](), times[rng.Intn(len(times))]())
		}
		want, err := refArea(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Area(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Bound, want.Bound) || !sameBits(got.SplitAccel, want.SplitAccel) {
			t.Fatalf("trial %d (%v, %v): Area = %v split %v, reference %v split %v",
				trial, pl, in, got.Bound, got.SplitAccel, want.Bound, want.SplitAccel)
		}
		if len(got.CPUFraction) != len(want.CPUFraction) {
			t.Fatalf("trial %d: %d fractions, reference %d", trial, len(got.CPUFraction), len(want.CPUFraction))
		}
		for id, x := range want.CPUFraction {
			if y, ok := got.CPUFraction[id]; !ok || !sameBits(x, y) {
				t.Fatalf("trial %d: task %d fraction %v, reference %v", trial, id, y, x)
			}
		}
		if ab, err := AreaBound(in, pl); err != nil || !sameBits(ab, want.Bound) {
			t.Fatalf("trial %d: AreaBound = %v, %v; reference %v", trial, ab, err, want.Bound)
		}
		if lb, err := Lower(in, pl); err != nil || !sameBits(lb, math.Max(want.Bound, MaxMinBound(in))) {
			t.Fatalf("trial %d: Lower = %v, %v; reference %v", trial, lb, err, math.Max(want.Bound, MaxMinBound(in)))
		}
		switch {
		case pl.CPUs == 0 || pl.GPUs == 0:
			oneClass++
		case !math.IsNaN(want.SplitAccel):
			split++
		case len(in) > 0:
			exhausted++
		}
	}
	if exhausted == 0 || split == 0 || oneClass == 0 {
		t.Errorf("corpus reached %d split, %d exhausted and %d one-class instances; each must be nonzero", split, exhausted, oneClass)
	}
}
