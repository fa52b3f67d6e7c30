package tile

import (
	"fmt"

	"repro/internal/cancel"
)

// Variant selects a kernel implementation class.
type Variant int

const (
	// Reference uses the naive kernels (the "CPU-class" implementations).
	Reference Variant = iota
	// Fast uses the blocked/unrolled kernels (the "accelerator-class"
	// implementations).
	Fast
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Reference:
		return "reference"
	case Fast:
		return "fast"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Kernels bundles one implementation of each Cholesky kernel.
type Kernels struct {
	POTRF func(a []float64, b int, flag *cancel.Flag) (bool, error)
	TRSM  func(a, l []float64, b int, flag *cancel.Flag) bool
	SYRK  func(c, a []float64, b int, flag *cancel.Flag) bool
	GEMM  func(c, a, b2 []float64, b int, flag *cancel.Flag) bool
}

// KernelsFor returns the kernel set of a variant. Both variants share
// POTRF.
func KernelsFor(v Variant) Kernels {
	switch v {
	case Fast:
		return Kernels{POTRF: POTRF, TRSM: TRSMFast, SYRK: SYRKFast, GEMM: GEMMFast}
	default:
		return Kernels{POTRF: POTRF, TRSM: TRSM, SYRK: SYRK, GEMM: GEMM}
	}
}

// CholeskyTiled factors the tiled SPD matrix in place into its lower
// Cholesky factor using the right-looking tiled algorithm with the given
// kernel variant. This is the sequential reference against which the
// runtime executor is validated.
func CholeskyTiled(td *Tiled, v Variant) error {
	k := KernelsFor(v)
	nt, b := td.NT, td.B
	for kk := 0; kk < nt; kk++ {
		if _, err := k.POTRF(td.Tile(kk, kk), b, nil); err != nil {
			return fmt.Errorf("tile: POTRF(%d): %w", kk, err)
		}
		for i := kk + 1; i < nt; i++ {
			k.TRSM(td.Tile(i, kk), td.Tile(kk, kk), b, nil)
		}
		for i := kk + 1; i < nt; i++ {
			k.SYRK(td.Tile(i, i), td.Tile(i, kk), b, nil)
			for j := kk + 1; j < i; j++ {
				k.GEMM(td.Tile(i, j), td.Tile(i, kk), td.Tile(j, kk), b, nil)
			}
		}
	}
	return nil
}

// CholeskyDense factors an SPD matrix (returning the lower factor in a
// copy) with the unblocked algorithm — ground truth for tests.
func CholeskyDense(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("tile: matrix %dx%d not square", a.Rows, a.Cols)
	}
	l := a.Clone()
	if _, err := POTRF(l.Data, l.Rows, nil); err != nil {
		return nil, err
	}
	// Zero the strict upper triangle for cleanliness.
	for i := 0; i < l.Rows; i++ {
		for j := i + 1; j < l.Cols; j++ {
			l.Set(i, j, 0)
		}
	}
	return l, nil
}
