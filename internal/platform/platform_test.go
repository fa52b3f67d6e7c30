package platform

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindOther(t *testing.T) {
	if CPU.Other() != GPU {
		t.Errorf("CPU.Other() = %v, want GPU", CPU.Other())
	}
	if GPU.Other() != CPU {
		t.Errorf("GPU.Other() = %v, want CPU", GPU.Other())
	}
}

func TestKindString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Errorf("kind strings: %q %q", CPU.String(), GPU.String())
	}
	if got := Kind(7).String(); !strings.Contains(got, "7") {
		t.Errorf("unknown kind string %q", got)
	}
}

func TestKindValid(t *testing.T) {
	if !CPU.Valid() || !GPU.Valid() {
		t.Error("CPU/GPU should be valid kinds")
	}
	if Kind(3).Valid() {
		t.Error("Kind(3) should be invalid")
	}
}

func TestTaskTime(t *testing.T) {
	task := Task{ID: 1, CPUTime: 10, GPUTime: 2}
	if task.Time(CPU) != 10 {
		t.Errorf("Time(CPU) = %v, want 10", task.Time(CPU))
	}
	if task.Time(GPU) != 2 {
		t.Errorf("Time(GPU) = %v, want 2", task.Time(GPU))
	}
	if task.Accel() != 5 {
		t.Errorf("Accel() = %v, want 5", task.Accel())
	}
	if task.MinTime() != 2 || task.MaxTime() != 10 {
		t.Errorf("Min/MaxTime = %v/%v, want 2/10", task.MinTime(), task.MaxTime())
	}
	if task.BestKind() != GPU {
		t.Errorf("BestKind = %v, want GPU", task.BestKind())
	}
	slow := Task{ID: 2, CPUTime: 1, GPUTime: 4}
	if slow.BestKind() != CPU {
		t.Errorf("BestKind = %v, want CPU", slow.BestKind())
	}
}

// MinTime and MaxTime use the builtin min and max. They must equal
// math.Min and math.Max bit for bit, ±0 and ±Inf included, except where a
// NaN meets the infinity math lets win: there the builtins give NaN.
func TestMinMaxTimeMatchMath(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	vals := []float64{0, negZero, 1, 2, -1, inf, -inf, math.NaN()}
	same := func(got, want float64) bool {
		if math.IsNaN(got) || math.IsNaN(want) {
			return math.IsNaN(got) && math.IsNaN(want)
		}
		return math.Float64bits(got) == math.Float64bits(want)
	}
	for _, p := range vals {
		for _, q := range vals {
			task := Task{CPUTime: p, GPUTime: q}
			nan := math.IsNaN(p) || math.IsNaN(q)
			wantMin, wantMax := math.Min(p, q), math.Max(p, q)
			if nan && (p == -inf || q == -inf) {
				wantMin = math.NaN()
			}
			if nan && (p == inf || q == inf) {
				wantMax = math.NaN()
			}
			if got := task.MinTime(); !same(got, wantMin) {
				t.Errorf("MinTime(%v, %v) = %v, want %v", p, q, got, wantMin)
			}
			if got := task.MaxTime(); !same(got, wantMax) {
				t.Errorf("MaxTime(%v, %v) = %v, want %v", p, q, got, wantMax)
			}
		}
	}
}

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name string
		task Task
		ok   bool
	}{
		{"valid", Task{CPUTime: 1, GPUTime: 1}, true},
		{"zero cpu", Task{CPUTime: 0, GPUTime: 1}, false},
		{"negative gpu", Task{CPUTime: 1, GPUTime: -2}, false},
		{"nan", Task{CPUTime: math.NaN(), GPUTime: 1}, false},
		{"inf", Task{CPUTime: 1, GPUTime: math.Inf(1)}, false},
		{"nan priority", Task{CPUTime: 1, GPUTime: 1, Priority: math.NaN()}, false},
		{"+inf priority", Task{CPUTime: 1, GPUTime: 1, Priority: math.Inf(1)}, true},
		{"-inf priority", Task{CPUTime: 1, GPUTime: 1, Priority: math.Inf(-1)}, true},
	}
	for _, c := range cases {
		err := c.task.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestTaskString(t *testing.T) {
	s := Task{ID: 3, Name: "dgemm", CPUTime: 2, GPUTime: 1}.String()
	if !strings.Contains(s, "dgemm") || !strings.Contains(s, "rho=2") {
		t.Errorf("unexpected task string %q", s)
	}
	anon := Task{ID: 4, CPUTime: 2, GPUTime: 1}.String()
	if !strings.Contains(anon, "task4") {
		t.Errorf("anonymous task string %q", anon)
	}
}

func TestPlatformBasics(t *testing.T) {
	p := NewPlatform(3, 2)
	if p.Workers() != 5 {
		t.Fatalf("Workers() = %d, want 5", p.Workers())
	}
	if p.Count(CPU) != 3 || p.Count(GPU) != 2 {
		t.Fatalf("Count = %d/%d, want 3/2", p.Count(CPU), p.Count(GPU))
	}
	wantKinds := []Kind{CPU, CPU, CPU, GPU, GPU}
	for w, want := range wantKinds {
		if got := p.KindOf(w); got != want {
			t.Errorf("KindOf(%d) = %v, want %v", w, got, want)
		}
	}
	if got := p.WorkersOf(CPU); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("WorkersOf(CPU) = %v", got)
	}
	if got := p.WorkersOf(GPU); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("WorkersOf(GPU) = %v", got)
	}
	if name := p.WorkerName(4); name != "GPU1" {
		t.Errorf("WorkerName(4) = %q, want GPU1", name)
	}
	if name := p.WorkerName(0); name != "CPU0" {
		t.Errorf("WorkerName(0) = %q, want CPU0", name)
	}
}

func TestPlatformValidate(t *testing.T) {
	if err := (Platform{CPUs: -1, GPUs: 2}).Validate(); err == nil {
		t.Error("negative CPU count should fail validation")
	}
	if err := (Platform{}).Validate(); err == nil {
		t.Error("empty platform should fail validation")
	}
	if err := (Platform{CPUs: 0, GPUs: 1}).Validate(); err != nil {
		t.Errorf("GPU-only platform should be valid: %v", err)
	}
}

func TestPlatformPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("NewPlatform", func() { NewPlatform(-1, 0) })
	p := NewPlatform(1, 1)
	mustPanic("KindOf high", func() { p.KindOf(2) })
	mustPanic("KindOf low", func() { p.KindOf(-1) })
}

func TestInstanceValidate(t *testing.T) {
	in := Instance{
		{ID: 0, CPUTime: 1, GPUTime: 1},
		{ID: 1, CPUTime: 2, GPUTime: 1},
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	dup := Instance{
		{ID: 0, CPUTime: 1, GPUTime: 1},
		{ID: 0, CPUTime: 2, GPUTime: 1},
	}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate IDs should fail validation")
	}
	// IDs outside [0, len) take the map path.
	sparse := Instance{{ID: 7, CPUTime: 1, GPUTime: 1}, {ID: -3, CPUTime: 1, GPUTime: 1}, {ID: 1, CPUTime: 1, GPUTime: 1}}
	if err := sparse.Validate(); err != nil {
		t.Errorf("valid sparse IDs rejected: %v", err)
	}
	for _, id := range []int{7, -3} {
		d := append(sparse.Clone(), Task{ID: id, CPUTime: 1, GPUTime: 1})
		if err := d.Validate(); err == nil {
			t.Errorf("duplicate sparse ID %d should fail validation", id)
		}
	}
	bad := Instance{{ID: 0, CPUTime: -1, GPUTime: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("bad task should fail validation")
	}
}

func TestInstanceCloneRenumber(t *testing.T) {
	in := Instance{{ID: 7, CPUTime: 1, GPUTime: 1}, {ID: 9, CPUTime: 2, GPUTime: 1}}
	c := in.Clone()
	c[0].CPUTime = 42
	if in[0].CPUTime == 42 {
		t.Error("Clone did not deep-copy")
	}
	in.Renumber()
	if in[0].ID != 0 || in[1].ID != 1 {
		t.Errorf("Renumber gave IDs %d,%d", in[0].ID, in[1].ID)
	}
}

func TestInstanceTotals(t *testing.T) {
	in := Instance{
		{ID: 0, CPUTime: 3, GPUTime: 1},
		{ID: 1, CPUTime: 5, GPUTime: 4},
	}
	if got := in.TotalTime(CPU); got != 8 {
		t.Errorf("TotalTime(CPU) = %v, want 8", got)
	}
	if got := in.TotalTime(GPU); got != 5 {
		t.Errorf("TotalTime(GPU) = %v, want 5", got)
	}
	if got := in.MaxMinTime(); got != 4 {
		t.Errorf("MaxMinTime = %v, want 4", got)
	}
	if got := in.EquivalentAccel(); got != 8.0/5.0 {
		t.Errorf("EquivalentAccel = %v, want 1.6", got)
	}
	lo, hi := in.AccelRange()
	if lo != 1.25 || hi != 3 {
		t.Errorf("AccelRange = %v,%v, want 1.25,3", lo, hi)
	}
}

func TestInstanceEmptyAggregates(t *testing.T) {
	var in Instance
	if !math.IsNaN(in.EquivalentAccel()) {
		t.Error("EquivalentAccel of empty instance should be NaN")
	}
	lo, hi := in.AccelRange()
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("AccelRange of empty instance should be NaN")
	}
}

func TestByAccelDescStable(t *testing.T) {
	in := Instance{
		{ID: 0, Name: "a", CPUTime: 1, GPUTime: 1},   // rho 1
		{ID: 1, Name: "b", CPUTime: 4, GPUTime: 1},   // rho 4
		{ID: 2, Name: "c", CPUTime: 2, GPUTime: 2},   // rho 1 (tie with a, must stay after)
		{ID: 3, Name: "d", CPUTime: 0.5, GPUTime: 1}, // rho 0.5
	}
	sorted := in.ByAccelDesc()
	got := []int{sorted[0].ID, sorted[1].ID, sorted[2].ID, sorted[3].ID}
	want := []int{1, 0, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if in[0].ID != 0 || in[1].ID != 1 || in[2].ID != 2 || in[3].ID != 3 {
		t.Fatal("ByAccelDesc reordered its receiver")
	}
}

// refSortByAccelDesc is the in-place stable sort the schedulers ran on a
// Clone before ByAccelDesc, kept as its reference.
func refSortByAccelDesc(in Instance) {
	slices.SortStableFunc(in, func(a, b Task) int {
		return cmp.Compare(b.Accel(), a.Accel())
	})
}

// TestSortsMatchSliceStable holds ByAccelDesc to the stable sorts
// it replaced, refSortByAccelDesc and the reflection-based
// sort.SliceStable before it, on seeded instances where acceleration
// factors tie often and times reach the subnormal range and the float64
// maximum (so rho can be 0 or +Inf): 2000 instances of up to 40 tasks
// and 20 of 1000 to 3000.
func TestSortsMatchSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	times := []float64{1, 2, 4, math.SmallestNonzeroFloat64, math.MaxFloat64, 0.5}
	prios := []float64{0, 1, 2, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 2020; trial++ {
		n := rng.Intn(40)
		if trial >= 2000 {
			n = 1000 + rng.Intn(2001)
		}
		in := make(Instance, n)
		for i := range in {
			in[i] = Task{ID: i, CPUTime: times[rng.Intn(len(times))], GPUTime: times[rng.Intn(len(times))], Priority: prios[rng.Intn(len(prios))]}
		}
		orig := in.Clone()
		got := in.ByAccelDesc()
		ref, want := in.Clone(), in.Clone()
		refSortByAccelDesc(ref)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Accel() > want[j].Accel() })
		for i := range want {
			if got[i].ID != want[i].ID || ref[i].ID != want[i].ID {
				t.Fatalf("trial %d (%d tasks): at %d ByAccelDesc puts task %d, refSortByAccelDesc task %d, sort.SliceStable task %d",
					trial, n, i, got[i].ID, ref[i].ID, want[i].ID)
			}
		}
		if !slices.Equal(in, orig) {
			t.Fatalf("trial %d: ByAccelDesc changed its receiver", trial)
		}
	}
}

func TestByID(t *testing.T) {
	in := Instance{{ID: 5, CPUTime: 1, GPUTime: 1}, {ID: 9, CPUTime: 2, GPUTime: 1}}
	m := in.ByID()
	if len(m) != 2 || m[9].CPUTime != 2 {
		t.Errorf("ByID map wrong: %v", m)
	}
}

// Property: sorting by acceleration factor never changes the multiset of
// tasks, and the resulting order is non-increasing in rho.
func TestByAccelDescProperty(t *testing.T) {
	f := func(raw []struct{ P, Q uint16 }) bool {
		in := make(Instance, 0, len(raw))
		for i, r := range raw {
			p := float64(r.P%1000) + 1
			q := float64(r.Q%1000) + 1
			in = append(in, Task{ID: i, CPUTime: p, GPUTime: q})
		}
		sumBefore := in.TotalTime(CPU) + 3*in.TotalTime(GPU)
		in = in.ByAccelDesc()
		if got := in.TotalTime(CPU) + 3*in.TotalTime(GPU); got != sumBefore {
			return false
		}
		for i := 1; i < len(in); i++ {
			if in[i-1].Accel() < in[i].Accel() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
