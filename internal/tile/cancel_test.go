package tile

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cancel"
)

func randTileN(rng *rand.Rand, b int) []float64 {
	x := make([]float64, b*b)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

func lowerTileN(rng *rand.Rand, b int) []float64 {
	x := randTileN(rng, b)
	for i := 0; i < b; i++ {
		x[i*b+i] = 2 + rng.Float64()
	}
	return x
}

func spdTileN(rng *rand.Rand, b int) []float64 {
	x := make([]float64, b*b)
	for i := 0; i < b; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Float64()
			x[i*b+j] = v
			x[j*b+i] = v
		}
		x[i*b+i] += float64(b)
	}
	return x
}

// kernelCase runs one tile kernel on fresh inputs under a flag and
// reports whether it completed.
type kernelCase struct {
	name string
	run  func(flag *cancel.Flag) (bool, error)
}

// completed adapts a kernel without an error result to kernelCase.run.
func completed(ok bool) (bool, error) { return ok, nil }

// flagSizes are the tile sizes the flag contract is checked at: within,
// at and just past one block of rows (blockDim = 32), and two blocks.
var flagSizes = []int{16, 32, 33, 64}

// checkFlagContract holds the kernels that kernels(b) builds to the flag
// contract at every size of flagSizes: with a nil flag each completes,
// and with a flag cancelled before the call it abandons the run and
// reports false without an error.
func checkFlagContract(t *testing.T, kernels func(b int) []kernelCase) {
	t.Helper()
	for _, b := range flagSizes {
		for _, k := range kernels(b) {
			if ok, err := k.run(nil); !ok || err != nil {
				t.Errorf("%s at b = %d with a nil flag: completed=%v err=%v, want a completed run", k.name, b, ok, err)
			}
			flag := &cancel.Flag{}
			flag.Cancel()
			if ok, err := k.run(flag); ok || err != nil {
				t.Errorf("%s at b = %d with a cancelled flag: completed=%v err=%v, want an abandoned run", k.name, b, ok, err)
			}
		}
	}
}

// TestCancelledKernelsAbort holds the Cholesky and QR kernels (11 of the
// package's 16) to the flag contract; TestLUCancelledAbort holds the
// other five.
func TestCancelledKernelsAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	checkFlagContract(t, func(b int) []kernelCase {
		x, y := randTileN(rng, b), randTileN(rng, b)
		lower := lowerTileN(rng, b)
		// QR factors: v and t1 from GEQRT, r/bot and t2 from TSQRT.
		v, t1 := randTileN(rng, b), make([]float64, b*b)
		GEQRT(v, t1, b, nil)
		r, bot, t2 := append([]float64(nil), v...), randTileN(rng, b), make([]float64, b*b)
		TSQRT(r, bot, t2, b, nil)
		fresh := func() []float64 { return randTileN(rng, b) }
		clone := func(s []float64) []float64 { return append([]float64(nil), s...) }
		return []kernelCase{
			{"POTRF", func(f *cancel.Flag) (bool, error) { return POTRF(spdTileN(rng, b), b, f) }},
			{"TRSM", func(f *cancel.Flag) (bool, error) { return completed(TRSM(fresh(), lower, b, f)) }},
			{"TRSMFast", func(f *cancel.Flag) (bool, error) { return completed(TRSMFast(fresh(), lower, b, f)) }},
			{"SYRK", func(f *cancel.Flag) (bool, error) { return completed(SYRK(fresh(), x, b, f)) }},
			{"SYRKFast", func(f *cancel.Flag) (bool, error) { return completed(SYRKFast(fresh(), x, b, f)) }},
			{"GEMM", func(f *cancel.Flag) (bool, error) { return completed(GEMM(fresh(), x, y, b, f)) }},
			{"GEMMFast", func(f *cancel.Flag) (bool, error) { return completed(GEMMFast(fresh(), x, y, b, f)) }},
			{"GEQRT", func(f *cancel.Flag) (bool, error) { return completed(GEQRT(fresh(), make([]float64, b*b), b, f)) }},
			{"LARFB", func(f *cancel.Flag) (bool, error) { return completed(LARFB(fresh(), v, t1, b, f)) }},
			{"TSQRT", func(f *cancel.Flag) (bool, error) {
				return completed(TSQRT(clone(v), fresh(), make([]float64, b*b), b, f))
			}},
			{"TSMQR", func(f *cancel.Flag) (bool, error) { return completed(TSMQR(fresh(), fresh(), bot, t2, b, f)) }},
		}
	})
}

// TestPOTRFCancelNotPD: under a live flag, a non-positive pivot completes
// the run with an error that names the pivot.
func TestPOTRFCancelNotPD(t *testing.T) {
	a := []float64{1, 0, 0, -4}
	done, err := POTRF(a, 2, &cancel.Flag{})
	if !done || !errors.Is(err, ErrNotPositiveDefinite) || !strings.Contains(err.Error(), "pivot 1 = -4") {
		t.Errorf("non-PD: done=%v err=%v, want completed with the pivot in the error", done, err)
	}
}
