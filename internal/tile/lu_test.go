package tile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cancel"
)

func TestGETRFSingular(t *testing.T) {
	a := []float64{0, 1, 1, 1} // zero pivot
	if _, err := GETRF(a, 2, nil); err == nil {
		t.Error("singular tile accepted")
	}
}

func TestLUDenseReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomDiagDominant(24, rng)
	lu, err := LUDense(a)
	if err != nil {
		t.Fatal(err)
	}
	rec := LUReconstruct(lu)
	if d := MaxAbsDiff(a, rec); d > 1e-9 {
		t.Errorf("L*U differs from A by %v", d)
	}
}

func TestLUDenseNonSquare(t *testing.T) {
	if _, err := LUDense(NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}

func TestTRSMLowerSolves(t *testing.T) {
	// After GETRF on l, TRSMLower(a, l) must satisfy L * X = A_orig.
	const b = 8
	rng := rand.New(rand.NewSource(2))
	l := RandomDiagDominant(b, rng)
	if _, err := GETRF(l.Data, b, nil); err != nil {
		t.Fatal(err)
	}
	orig := make([]float64, b*b)
	for i := range orig {
		orig[i] = rng.Float64()
	}
	x := append([]float64(nil), orig...)
	TRSMLower(x, l.Data, b, nil)
	// Recompute L*X (L unit lower from l).
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			s := x[i*b+j]
			for k := 0; k < i; k++ {
				s += l.Data[i*b+k] * x[k*b+j]
			}
			if math.Abs(s-orig[i*b+j]) > 1e-9 {
				t.Fatalf("L*X != A at (%d,%d): %v vs %v", i, j, s, orig[i*b+j])
			}
		}
	}
}

func TestTRSMUpperSolves(t *testing.T) {
	const b = 8
	rng := rand.New(rand.NewSource(3))
	u := RandomDiagDominant(b, rng)
	if _, err := GETRF(u.Data, b, nil); err != nil {
		t.Fatal(err)
	}
	orig := make([]float64, b*b)
	for i := range orig {
		orig[i] = rng.Float64()
	}
	x := append([]float64(nil), orig...)
	TRSMUpper(x, u.Data, b, nil)
	// Recompute X*U (U upper incl. diagonal from u).
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += x[i*b+k] * u.Data[k*b+j]
			}
			if math.Abs(s-orig[i*b+j]) > 1e-9 {
				t.Fatalf("X*U != A at (%d,%d): %v vs %v", i, j, s, orig[i*b+j])
			}
		}
	}
}

func TestGEMMNTVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const b = 48
	a, b2 := randTileN(rng, b), randTileN(rng, b)
	c1 := randTileN(rng, b)
	c2 := append([]float64(nil), c1...)
	GEMMNT(c1, a, b2, b, nil)
	GEMMNTFast(c2, a, b2, b, nil)
	if d := maxDiff(c1, c2); d > 1e-10 {
		t.Errorf("GEMMNT variants differ by %v", d)
	}
}

func TestLUTiledMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandomDiagDominant(48, rng)
	want, err := LUDense(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, fast := range []bool{false, true} {
		td, err := NewTiled(a, 12)
		if err != nil {
			t.Fatal(err)
		}
		if err := LUTiled(td, fast); err != nil {
			t.Fatalf("fast=%v: %v", fast, err)
		}
		got := td.Assemble()
		if d := MaxAbsDiff(got, want); d > 1e-8 {
			t.Errorf("fast=%v: tiled LU differs from dense by %v", fast, d)
		}
	}
}

func TestLUTiledSingular(t *testing.T) {
	m := NewMatrix(4, 4)
	td, err := NewTiled(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := LUTiled(td, false); err == nil {
		t.Error("singular matrix accepted")
	}
}

// Property: tiled LU reconstructs the original matrix for every valid tile
// size.
func TestLUTiledProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandomDiagDominant(12, rng)
		for _, b := range []int{1, 2, 3, 4, 6, 12} {
			td, err := NewTiled(a, b)
			if err != nil {
				return false
			}
			if err := LUTiled(td, true); err != nil {
				return false
			}
			rec := LUReconstruct(td.Assemble())
			if MaxAbsDiff(a, rec) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestLUCancelledAbort holds the five LU kernels to the flag contract (see
// checkFlagContract).
func TestLUCancelledAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkFlagContract(t, func(b int) []kernelCase {
		lu := RandomDiagDominant(b, rng).Data
		if _, err := GETRF(lu, b, nil); err != nil {
			t.Fatal(err)
		}
		x, y := randTileN(rng, b), randTileN(rng, b)
		fresh := func() []float64 { return randTileN(rng, b) }
		return []kernelCase{
			{"GETRF", func(f *cancel.Flag) (bool, error) { return GETRF(RandomDiagDominant(b, rng).Data, b, f) }},
			{"TRSMLower", func(f *cancel.Flag) (bool, error) { return completed(TRSMLower(fresh(), lu, b, f)) }},
			{"TRSMUpper", func(f *cancel.Flag) (bool, error) { return completed(TRSMUpper(fresh(), lu, b, f)) }},
			{"GEMMNT", func(f *cancel.Flag) (bool, error) { return completed(GEMMNT(fresh(), x, y, b, f)) }},
			{"GEMMNTFast", func(f *cancel.Flag) (bool, error) { return completed(GEMMNTFast(fresh(), x, y, b, f)) }},
		}
	})
}
