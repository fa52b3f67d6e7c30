package runtime

import (
	"math/rand"

	"repro/internal/cancel"
	"repro/internal/clock"
	"repro/internal/platform"
	"repro/internal/tile"
	"repro/internal/workloads"
)

// QREstimates holds measured per-kernel durations (seconds) for the tiled
// QR. The QR kernels have a single implementation, so both classes see the
// same estimate; pass skewed estimates to exercise spoliation.
type QREstimates struct {
	B     int
	GEQRT [2]float64
	LARFB [2]float64
	TSQRT [2]float64
	TSMQR [2]float64
}

// CalibrateQR measures each QR kernel once on random tiles of size b and
// returns symmetric estimates.
func CalibrateQR(b int, rng *rand.Rand) QREstimates {
	return CalibrateQRClock(b, rng, clock.Wall{})
}

// CalibrateQRClock is CalibrateQR with an injected time source, so
// calibrations — like runs — can be replayed deterministically.
func CalibrateQRClock(b int, rng *rand.Rand, clk clock.Clock) QREstimates {
	mk := func() []float64 {
		t := make([]float64, b*b)
		for i := range t {
			t[i] = rng.Float64()*2 - 1
		}
		return t
	}
	est := QREstimates{B: b}
	a, t := mk(), make([]float64, b*b)
	d := timeIt(clk, func() { tile.GEQRT(a, t, b, nil) })
	est.GEQRT = [2]float64{d, d}
	c := mk()
	d = timeIt(clk, func() { tile.LARFB(c, a, t, b, nil) })
	est.LARFB = [2]float64{d, d}
	r, bot, t2 := a, mk(), make([]float64, b*b)
	d = timeIt(clk, func() { tile.TSQRT(r, bot, t2, b, nil) })
	est.TSQRT = [2]float64{d, d}
	cT, cB := mk(), mk()
	d = timeIt(clk, func() { tile.TSMQR(cT, cB, bot, t2, b, nil) })
	est.TSMQR = [2]float64{d, d}
	return est
}

// QRGraph builds the runtime task graph of the flat-tree tiled QR of td:
// the graph of workloads.QR, whose ORMQR tasks run LARFB. The T factors
// live inside the graph, one per panel k and one per TSQRT(i,k); they are
// rewritten from scratch on every attempt, so only the matrix tiles get
// snapshot/restore hooks and spoliation can safely restart any task.
func QRGraph(td *tile.Tiled, est QREstimates) (*Graph, error) {
	nt, b := td.NT, td.B
	t1 := make([][]float64, nt)    // GEQRT(k)'s T factor, read by ORMQR(k,j,k)
	t2 := make([][]float64, nt*nt) // TSQRT(i,k)'s, read by TSMQR(i,j,k)
	tFactor := func(ts [][]float64, at int) []float64 {
		if ts[at] == nil {
			ts[at] = make([]float64, b*b)
		}
		return ts[at]
	}
	return factorGraph(workloads.FactQR, td, est.B, func(op string, i, j, k int) (Task, bool) {
		aij, aik, akj, akk := td.Tile(i, j), td.Tile(i, k), td.Tile(k, j), td.Tile(k, k)
		switch op {
		case "GEQRT":
			t := tFactor(t1, k)
			return tileTask(est.GEQRT, func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				return tile.GEQRT(akk, t, b, flag), nil
			}, akk), true
		case "ORMQR":
			t := tFactor(t1, k)
			return tileTask(est.LARFB, func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				return tile.LARFB(akj, akk, t, b, flag), nil
			}, akj), true
		case "TSQRT":
			return tsqrtTask(est.TSQRT, akk, aik, tFactor(t2, i*nt+k), b), true
		case "TSMQR":
			t := tFactor(t2, i*nt+k)
			return tileTask(est.TSMQR, func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				return tile.TSMQR(akj, aij, aik, t, b, flag), nil
			}, akj, aij), true
		}
		return Task{}, false
	})
}

// tsqrtTask returns the task running TSQRT on the stack [akk; aik]. TSQRT
// writes only the R part of akk (upper triangle incl. diagonal); the strict
// lower triangle holds the Householder vectors that concurrent LARFB
// tasks of the same panel read. The spoliation snapshot must stay inside
// the written region — restoring the whole tile would race with those
// readers.
func tsqrtTask(est [2]float64, akk, aik, t []float64, b int) Task {
	var upperBak, aikBak []float64
	return Task{
		EstCPU: est[0], EstGPU: est[1],
		Prepare: func() {
			upperBak = upperBak[:0]
			for r := 0; r < b; r++ {
				upperBak = append(upperBak, akk[r*b+r:(r+1)*b]...)
			}
			aikBak = append(aikBak[:0], aik...)
		},
		Reset: func() {
			off := 0
			for r := 0; r < b; r++ {
				n := b - r
				copy(akk[r*b+r:(r+1)*b], upperBak[off:off+n])
				off += n
			}
			copy(aik, aikBak)
		},
		Run: func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
			return tile.TSQRT(akk, aik, t, b, flag), nil
		},
	}
}
