package runtime

import (
	"math/rand"

	"repro/internal/cancel"
	"repro/internal/clock"
	"repro/internal/platform"
	"repro/internal/tile"
	"repro/internal/workloads"
)

// LUEstimates holds measured per-kernel durations (seconds) for the tiled
// LU without pivoting; the two GEMM entries are the reference and fast
// implementation classes, the solve/panel kernels share one
// implementation across classes (their acceleration factor is ~1, like
// the paper's DPOTRF/DGETRF).
type LUEstimates struct {
	B     int
	GETRF float64
	TRSM  float64
	GEMM  [2]float64 // [CPU-class (reference), GPU-class (fast)]
}

// CalibrateLU measures the LU kernels once on random tiles of size b.
func CalibrateLU(b int, rng *rand.Rand) LUEstimates {
	return CalibrateLUClock(b, rng, clock.Wall{})
}

// CalibrateLUClock is CalibrateLU with an injected time source, so
// calibrations — like runs — can be replayed deterministically.
func CalibrateLUClock(b int, rng *rand.Rand, clk clock.Clock) LUEstimates {
	mk := func() []float64 {
		t := make([]float64, b*b)
		for i := range t {
			t[i] = rng.Float64()
		}
		return t
	}
	dd := tile.RandomDiagDominant(b, rng)
	est := LUEstimates{B: b}
	g1 := dd.Clone()
	est.GETRF = timeIt(clk, func() { _, _ = tile.GETRF(g1.Data, b, nil) })
	t1 := mk()
	est.TRSM = timeIt(clk, func() { tile.TRSMUpper(t1, g1.Data, b, nil) })
	c1, c2, x, y := mk(), mk(), mk(), mk()
	gemmRef := timeIt(clk, func() { tile.GEMMNT(c1, x, y, b, nil) })
	gemmFast := timeIt(clk, func() { tile.GEMMNTFast(c2, x, y, b, nil) })
	est.GEMM = [2]float64{gemmRef, gemmFast}
	return est
}

// LUGraph builds the runtime task graph factoring td in place with the
// tiled LU without pivoting: the graph of workloads.LU. GEMM updates run
// the naive kernel on the CPU class and the blocked kernel on the GPU
// class; panel and solve kernels share one implementation (acceleration
// factor 1). Of the two TRSMs, TRSM(k,j,k) solves the row panel with L
// and TRSM(i,k,k) the column panel with U.
func LUGraph(td *tile.Tiled, est LUEstimates) (*Graph, error) {
	b := td.B
	return factorGraph(workloads.FactLU, td, est.B, func(op string, i, j, k int) (Task, bool) {
		aij, aik, akj, akk := td.Tile(i, j), td.Tile(i, k), td.Tile(k, j), td.Tile(k, k)
		switch op {
		case "GETRF":
			return tileTask([2]float64{est.GETRF, est.GETRF}, func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				return tile.GETRF(akk, b, flag)
			}, akk), true
		case "TRSM":
			solve := tile.TRSMUpper
			if i == k {
				solve = tile.TRSMLower
			}
			return tileTask([2]float64{est.TRSM, est.TRSM}, func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				return solve(aij, akk, b, flag), nil
			}, aij), true
		case "GEMM":
			return tileTask(est.GEMM, func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				if kind == platform.GPU {
					return tile.GEMMNTFast(aij, aik, akj, b, flag), nil
				}
				return tile.GEMMNT(aij, aik, akj, b, flag), nil
			}, aij), true
		}
		return Task{}, false
	})
}
