package tile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone shares storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative dims should panic")
		}
	}()
	NewMatrix(-1, 1)
}

func TestMaxAbsDiffPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	MaxAbsDiff(NewMatrix(1, 2), NewMatrix(2, 1))
}

func TestRandomSPDIsFactorable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomSPD(24, rng)
	l, err := CholeskyDense(a)
	if err != nil {
		t.Fatal(err)
	}
	rec := LowerTimesTranspose(l)
	if d := MaxAbsDiff(a, rec); d > 1e-8 {
		t.Errorf("reconstruction error %v", d)
	}
}

func TestPOTRFNotPD(t *testing.T) {
	a := []float64{1, 0, 0, -4} // 2x2 with negative trailing pivot
	if _, err := POTRF(a, 2, nil); err == nil {
		t.Error("non-PD matrix accepted")
	}
}

func TestTiledRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomSPD(12, rng)
	td, err := NewTiled(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if td.NT != 3 || td.B != 4 {
		t.Fatalf("tiling shape %d/%d", td.NT, td.B)
	}
	back := td.Assemble()
	if d := MaxAbsDiff(a, back); d != 0 {
		t.Errorf("round trip error %v", d)
	}
}

func TestNewTiledErrors(t *testing.T) {
	if _, err := NewTiled(NewMatrix(3, 4), 1); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := NewTiled(NewMatrix(4, 4), 3); err == nil {
		t.Error("non-divisible tile size accepted")
	}
	if _, err := NewTiled(NewMatrix(4, 4), 0); err == nil {
		t.Error("zero tile size accepted")
	}
}

// Fast kernels must agree with the reference kernels bit-for-bit in
// structure (same math, different order => same result up to rounding).
func TestFastKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const b = 48
	randTile := func() []float64 {
		x := make([]float64, b*b)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		return x
	}
	lowerTile := func() []float64 {
		x := randTile()
		for i := 0; i < b; i++ {
			x[i*b+i] = 2 + rng.Float64() // well-conditioned diagonal
		}
		return x
	}

	// GEMM.
	c1, c2 := randTile(), make([]float64, b*b)
	copy(c2, c1)
	a, bb := randTile(), randTile()
	GEMM(c1, a, bb, b, nil)
	GEMMFast(c2, a, bb, b, nil)
	if d := maxDiff(c1, c2); d > 1e-10 {
		t.Errorf("GEMM variants differ by %v", d)
	}

	// SYRK.
	c1, c2 = randTile(), make([]float64, b*b)
	copy(c2, c1)
	SYRK(c1, a, b, nil)
	SYRKFast(c2, a, b, nil)
	if d := maxDiff(c1, c2); d > 1e-10 {
		t.Errorf("SYRK variants differ by %v", d)
	}

	// TRSM.
	l := lowerTile()
	c1, c2 = randTile(), make([]float64, b*b)
	copy(c2, c1)
	TRSM(c1, l, b, nil)
	TRSMFast(c2, l, b, nil)
	if d := maxDiff(c1, c2); d > 1e-9 {
		t.Errorf("TRSM variants differ by %v", d)
	}
}

func maxDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

func TestTRSMSolves(t *testing.T) {
	// X * L^T = A  =>  X L^T recovers A.
	const b = 8
	rng := rand.New(rand.NewSource(4))
	l := make([]float64, b*b)
	for i := 0; i < b; i++ {
		for j := 0; j <= i; j++ {
			l[i*b+j] = rng.Float64()
		}
		l[i*b+i] += 2
	}
	a := make([]float64, b*b)
	for i := range a {
		a[i] = rng.Float64()
	}
	x := make([]float64, b*b)
	copy(x, a)
	TRSM(x, l, b, nil)
	// Recompute X * L^T.
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += x[i*b+k] * l[j*b+k]
			}
			if math.Abs(s-a[i*b+j]) > 1e-9 {
				t.Fatalf("TRSM residual at (%d,%d): %v vs %v", i, j, s, a[i*b+j])
			}
		}
	}
}

func TestCholeskyTiledBothVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandomSPD(48, rng)
	want, err := CholeskyDense(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{Reference, Fast} {
		td, err := NewTiled(a, 12)
		if err != nil {
			t.Fatal(err)
		}
		if err := CholeskyTiled(td, v); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		got := td.Assemble()
		// Compare lower triangles.
		var d float64
		for i := 0; i < a.Rows; i++ {
			for j := 0; j <= i; j++ {
				d = math.Max(d, math.Abs(got.At(i, j)-want.At(i, j)))
			}
		}
		if d > 1e-8 {
			t.Errorf("%v: tiled factor differs from dense by %v", v, d)
		}
	}
}

func TestCholeskyTiledNotPD(t *testing.T) {
	m := NewMatrix(4, 4) // all zeros: not PD
	td, err := NewTiled(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := CholeskyTiled(td, Reference); err == nil {
		t.Error("zero matrix accepted")
	}
}

func TestCholeskyDenseNonSquare(t *testing.T) {
	if _, err := CholeskyDense(NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}

func TestVariantString(t *testing.T) {
	if Reference.String() != "reference" || Fast.String() != "fast" || Variant(9).String() == "" {
		t.Error("variant strings wrong")
	}
}

// Property: for random small SPD matrices, tiled and dense factorization
// agree for every valid tile size.
func TestCholeskyTiledProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandomSPD(12, rng)
		want, err := CholeskyDense(a)
		if err != nil {
			return false
		}
		for _, b := range []int{1, 2, 3, 4, 6, 12} {
			td, err := NewTiled(a, b)
			if err != nil {
				return false
			}
			if err := CholeskyTiled(td, Fast); err != nil {
				return false
			}
			got := td.Assemble()
			for i := 0; i < 12; i++ {
				for j := 0; j <= i; j++ {
					if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-8 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
