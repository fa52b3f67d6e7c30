package runtime

import (
	"math/rand"

	"repro/internal/cancel"
	"repro/internal/clock"
	"repro/internal/platform"
	"repro/internal/tile"
	"repro/internal/workloads"
)

// CholeskyEstimates holds the measured per-kernel durations (seconds) of
// the two implementation classes for one tile size.
type CholeskyEstimates struct {
	B     int
	POTRF [2]float64 // [CPU-class (reference), GPU-class (fast)]
	TRSM  [2]float64
	SYRK  [2]float64
	GEMM  [2]float64
}

// Accel returns the GEMM acceleration factor of the estimates (a sanity
// metric: the fast variant should be noticeably faster).
func (e CholeskyEstimates) Accel() float64 { return e.GEMM[0] / e.GEMM[1] }

// CalibrateCholesky measures each kernel variant once on random tiles of
// size b and returns duration estimates. The measurements are coarse —
// exactly like the per-kernel timings a runtime system collects on first
// use — and only their ratios matter to the scheduling policy.
func CalibrateCholesky(b int, rng *rand.Rand) CholeskyEstimates {
	return CalibrateCholeskyClock(b, rng, clock.Wall{})
}

// CalibrateCholeskyClock is CalibrateCholesky with an injected time
// source, so calibrations — like runs — can be replayed deterministically.
func CalibrateCholeskyClock(b int, rng *rand.Rand, clk clock.Clock) CholeskyEstimates {
	mk := func() []float64 {
		t := make([]float64, b*b)
		for i := range t {
			t[i] = rng.Float64()
		}
		return t
	}
	spd := func() []float64 {
		t := make([]float64, b*b)
		for i := 0; i < b; i++ {
			for j := 0; j <= i; j++ {
				v := rng.Float64()
				t[i*b+j] = v
				t[j*b+i] = v
			}
			t[i*b+i] += float64(b)
		}
		return t
	}
	est := CholeskyEstimates{B: b}
	// POTRF (both classes share the implementation; measure twice anyway).
	a1, a2 := spd(), spd()
	est.POTRF[0] = timeIt(clk, func() { _, _ = tile.POTRF(a1, b, nil) })
	est.POTRF[1] = timeIt(clk, func() { _, _ = tile.POTRF(a2, b, nil) })
	l := spd()
	_, _ = tile.POTRF(l, b, nil)
	t1, t2 := mk(), mk()
	est.TRSM[0] = timeIt(clk, func() { tile.TRSM(t1, l, b, nil) })
	est.TRSM[1] = timeIt(clk, func() { tile.TRSMFast(t2, l, b, nil) })
	c1, c2, x := mk(), mk(), mk()
	est.SYRK[0] = timeIt(clk, func() { tile.SYRK(c1, x, b, nil) })
	est.SYRK[1] = timeIt(clk, func() { tile.SYRKFast(c2, x, b, nil) })
	g1, g2, y := mk(), mk(), mk()
	est.GEMM[0] = timeIt(clk, func() { tile.GEMM(g1, x, y, b, nil) })
	est.GEMM[1] = timeIt(clk, func() { tile.GEMMFast(g2, x, y, b, nil) })
	return est
}

// CholeskyGraph builds the runtime task graph factoring td in place: the
// graph of workloads.Cholesky, one task per kernel instance of the
// right-looking tiled Cholesky. CPU-class runs use the naive reference
// kernels, GPU-class runs the blocked fast kernels, so the acceleration
// factors are real. Each task snapshots the single tile it mutates before
// its first attempt and restores it if a run is spoliated.
func CholeskyGraph(td *tile.Tiled, est CholeskyEstimates) (*Graph, error) {
	b := td.B
	kernels := func(kind platform.Kind) tile.Kernels {
		if kind == platform.GPU {
			return tile.KernelsFor(tile.Fast)
		}
		return tile.KernelsFor(tile.Reference)
	}
	return factorGraph(workloads.FactCholesky, td, est.B, func(op string, i, j, k int) (Task, bool) {
		aij, aik, akk, ajk := td.Tile(i, j), td.Tile(i, k), td.Tile(k, k), td.Tile(j, k)
		switch op {
		case "POTRF":
			return tileTask(est.POTRF, func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				return tile.POTRF(akk, b, flag)
			}, akk), true
		case "TRSM":
			return tileTask(est.TRSM, func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				return kernels(kind).TRSM(aik, akk, b, flag), nil
			}, aik), true
		case "SYRK":
			return tileTask(est.SYRK, func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				return kernels(kind).SYRK(aij, aik, b, flag), nil
			}, aij), true
		case "GEMM":
			return tileTask(est.GEMM, func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				return kernels(kind).GEMM(aij, aik, ajk, b, flag), nil
			}, aij), true
		}
		return Task{}, false
	})
}
