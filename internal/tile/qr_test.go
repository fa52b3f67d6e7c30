package tile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseQRGram factors a copy of m with plain Householder QR and returns
// its R — the single-tile ground truth (GEQRT with b = n).
func denseQRGram(m *Matrix) *Matrix {
	n := m.Rows
	a := m.Clone()
	t := make([]float64, n*n)
	GEQRT(a.Data, t, n, nil)
	r := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, a.At(i, j))
		}
	}
	return r
}

func TestGEQRTSingleTile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 16
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64()*2 - 1
	}
	r := denseQRGram(a)
	d, err := GramDiff(a, r)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-10*float64(n) {
		t.Errorf("A^T A != R^T R by %v", d)
	}
	// R is upper triangular by construction; sanity-check the diagonal is
	// nonzero for a random matrix.
	for i := 0; i < n; i++ {
		if r.At(i, i) == 0 {
			t.Errorf("zero diagonal at %d", i)
		}
	}
}

func TestGEQRTZeroColumn(t *testing.T) {
	// A tile whose subdiagonal column is already zero exercises the
	// tau = 0 path.
	const n = 4
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			a.Set(i, j, float64(1+i+j))
		}
	}
	r := denseQRGram(a)
	d, err := GramDiff(a, r)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-10 {
		t.Errorf("triangular input mishandled: %v", d)
	}
}

func TestTSQRTStackOfTwo(t *testing.T) {
	// Factor [R; A] where R comes from a GEQRT'd tile: the result must
	// satisfy the Gram identity for the stacked 2b x b matrix.
	rng := rand.New(rand.NewSource(2))
	const b = 8
	top := make([]float64, b*b)
	bot := make([]float64, b*b)
	for i := range top {
		top[i] = rng.Float64()*2 - 1
		bot[i] = rng.Float64()*2 - 1
	}
	// Gram of the stack before factorization.
	gram := func(t1, t2 []float64) []float64 {
		g := make([]float64, b*b)
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				var s float64
				for k := 0; k < b; k++ {
					s += t1[k*b+i]*t1[k*b+j] + t2[k*b+i]*t2[k*b+j]
				}
				g[i*b+j] = s
			}
		}
		return g
	}
	// First reduce the top tile to R, then verify TSQRT directly: the
	// Gram matrix of the stack [R; bot] must be preserved by the TSQRT
	// reduction (its Q is orthonormal).
	tf := make([]float64, b*b)
	GEQRT(top, tf, b, nil)
	r := make([]float64, b*b)
	for i := 0; i < b; i++ {
		for j := i; j < b; j++ {
			r[i*b+j] = top[i*b+j]
		}
	}
	beforeStack := gram(r, bot)
	t2 := make([]float64, b*b)
	TSQRT(r, bot, t2, b, nil)
	rOnly := make([]float64, b*b)
	for i := 0; i < b; i++ {
		for j := i; j < b; j++ {
			rOnly[i*b+j] = r[i*b+j]
		}
	}
	zero := make([]float64, b*b)
	after := gram(rOnly, zero)
	var worst float64
	for i := range after {
		worst = math.Max(worst, math.Abs(after[i]-beforeStack[i]))
	}
	if worst > 1e-9 {
		t.Errorf("TSQRT broke the Gram identity by %v", worst)
	}
}

func TestQRTiledMatchesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range []struct{ n, b int }{{16, 4}, {24, 8}, {36, 12}} {
		a := NewMatrix(cfg.n, cfg.n)
		for i := range a.Data {
			a.Data[i] = rng.Float64()*2 - 1
		}
		td, err := NewTiled(a, cfg.b)
		if err != nil {
			t.Fatal(err)
		}
		if err := QRTiled(td); err != nil {
			t.Fatal(err)
		}
		r := QRExtractR(td)
		d, err := GramDiff(a, r)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-9*float64(cfg.n) {
			t.Errorf("n=%d b=%d: A^T A != R^T R by %v", cfg.n, cfg.b, d)
		}
	}
}

func TestQRTiledMatchesDenseR(t *testing.T) {
	// Up to column signs, the tiled R must match the single-tile R.
	rng := rand.New(rand.NewSource(4))
	const n = 24
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64()*2 - 1
	}
	dense := denseQRGram(a)
	td, err := NewTiled(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := QRTiled(td); err != nil {
		t.Fatal(err)
	}
	tiled := QRExtractR(td)
	var worst float64
	for i := 0; i < n; i++ {
		// Signs of row i may differ; compare |R|.
		for j := i; j < n; j++ {
			worst = math.Max(worst, math.Abs(math.Abs(dense.At(i, j))-math.Abs(tiled.At(i, j))))
		}
	}
	if worst > 1e-8 {
		t.Errorf("tiled R differs from dense R (up to signs) by %v", worst)
	}
}

func TestGramDiffShapeMismatch(t *testing.T) {
	if _, err := GramDiff(NewMatrix(2, 2), NewMatrix(3, 3)); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := GramDiff(NewMatrix(2, 3), NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}

// Property: the Gram identity holds for random matrices and every valid
// tile size.
func TestQRTiledProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 12
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.Float64()*2 - 1
		}
		for _, b := range []int{2, 3, 4, 6} {
			td, err := NewTiled(a, b)
			if err != nil {
				return false
			}
			if err := QRTiled(td); err != nil {
				return false
			}
			d, err := GramDiff(a, QRExtractR(td))
			if err != nil || d > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
