package tile

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cancel"
)

// ErrNotPositiveDefinite is returned by POTRF when a non-positive pivot is
// encountered.
var ErrNotPositiveDefinite = errors.New("tile: matrix is not positive definite")

// The kernels operate in place on row-major b x b tiles and implement the
// four operations of the right-looking tiled Cholesky factorization
// (lower-triangular convention):
//
//	POTRF: A        -> L            with A = L * L^T
//	TRSM:  A_ik     -> A_ik * L_kk^-T
//	SYRK:  A_ii     -= A_ik * A_ik^T   (lower part)
//	GEMM:  A_ij     -= A_ik * A_jk^T
//
// Each update kernel has a reference implementation (naive loop order, the
// "CPU-class" variant) and an optimized implementation ("Fast" suffix,
// the "accelerator-class" variant) using loop reordering and blocking.
//
// Every kernel of the package polls a cancellation flag between row
// blocks and returns false if it was cancelled before completing; the
// output tiles are then unspecified and the task must be re-run on
// restored inputs. A nil flag never cancels.

// POTRF factors the tile in place into its lower Cholesky factor; entries
// above the diagonal are left untouched. It polls flag once per pivot
// block. The panel factorization is inherently sequential, so both
// implementation classes run this one kernel — the Table 1 pattern of an
// acceleration factor near 1.
func POTRF(a []float64, b int, flag *cancel.Flag) (bool, error) {
	for k := 0; k < b; k++ {
		if k%blockDim == 0 && flag.Cancelled() {
			return false, nil
		}
		pivot := a[k*b+k]
		for j := 0; j < k; j++ {
			pivot -= a[k*b+j] * a[k*b+j]
		}
		if pivot <= 0 {
			return true, fmt.Errorf("%w (pivot %d = %v)", ErrNotPositiveDefinite, k, pivot)
		}
		d := math.Sqrt(pivot)
		a[k*b+k] = d
		for i := k + 1; i < b; i++ {
			s := a[i*b+k]
			for j := 0; j < k; j++ {
				s -= a[i*b+j] * a[k*b+j]
			}
			a[i*b+k] = s / d
		}
	}
	return true, nil
}

// TRSM solves X * L^T = A for X in place: a = a * transpose(inverse(l)),
// with l lower triangular (only its lower part is read). It polls flag
// once per row.
func TRSM(a, l []float64, b int, flag *cancel.Flag) bool {
	for i := 0; i < b; i++ {
		if flag.Cancelled() {
			return false
		}
		row := a[i*b : (i+1)*b]
		for j := 0; j < b; j++ {
			s := row[j]
			for k := 0; k < j; k++ {
				s -= row[k] * l[j*b+k]
			}
			row[j] = s / l[j*b+j]
		}
	}
	return true
}

// SYRK updates the lower part of c: c -= a * a^T (naive loop order). It
// polls flag once per row.
func SYRK(c, a []float64, b int, flag *cancel.Flag) bool {
	for i := 0; i < b; i++ {
		if flag.Cancelled() {
			return false
		}
		for j := 0; j <= i; j++ {
			s := c[i*b+j]
			for k := 0; k < b; k++ {
				s -= a[i*b+k] * a[j*b+k]
			}
			c[i*b+j] = s
		}
	}
	return true
}

// GEMM updates c -= a * b2^T with the naive ijk loop order (poor locality
// on b2; this is the deliberately slow reference variant). It polls flag
// once per row.
func GEMM(c, a, b2 []float64, b int, flag *cancel.Flag) bool {
	for i := 0; i < b; i++ {
		if flag.Cancelled() {
			return false
		}
		for j := 0; j < b; j++ {
			s := c[i*b+j]
			for k := 0; k < b; k++ {
				s -= a[i*b+k] * b2[j*b+k]
			}
			c[i*b+j] = s
		}
	}
	return true
}

// blockDim is the register/cache blocking factor of the fast variants and
// the polling interval of the kernels that poll per block.
const blockDim = 32

// GEMMFast updates c -= a * b2^T with jki-blocked loops and an unrolled
// inner kernel; on typical hardware it runs several times faster than
// GEMM, playing the role of the accelerator implementation. It polls flag
// once per k panel.
func GEMMFast(c, a, b2 []float64, b int, flag *cancel.Flag) bool {
	for kk := 0; kk < b; kk += blockDim {
		if flag.Cancelled() {
			return false
		}
		kmax := min(kk+blockDim, b)
		for jj := 0; jj < b; jj += blockDim {
			jmax := min(jj+blockDim, b)
			for i := 0; i < b; i++ {
				arow := a[i*b : (i+1)*b]
				crow := c[i*b : (i+1)*b]
				for j := jj; j < jmax; j++ {
					brow := b2[j*b : (j+1)*b]
					var s float64
					k := kk
					for ; k+4 <= kmax; k += 4 {
						s += arow[k]*brow[k] + arow[k+1]*brow[k+1] +
							arow[k+2]*brow[k+2] + arow[k+3]*brow[k+3]
					}
					for ; k < kmax; k++ {
						s += arow[k] * brow[k]
					}
					crow[j] -= s
				}
			}
		}
	}
	return true
}

// SYRKFast updates the lower part of c -= a * a^T with the blocked kernel.
// It polls flag once per k panel.
func SYRKFast(c, a []float64, b int, flag *cancel.Flag) bool {
	for kk := 0; kk < b; kk += blockDim {
		if flag.Cancelled() {
			return false
		}
		kmax := min(kk+blockDim, b)
		for i := 0; i < b; i++ {
			arow := a[i*b : (i+1)*b]
			crow := c[i*b : (i+1)*b]
			for j := 0; j <= i; j++ {
				brow := a[j*b : (j+1)*b]
				var s float64
				k := kk
				for ; k+4 <= kmax; k += 4 {
					s += arow[k]*brow[k] + arow[k+1]*brow[k+1] +
						arow[k+2]*brow[k+2] + arow[k+3]*brow[k+3]
				}
				for ; k < kmax; k++ {
					s += arow[k] * brow[k]
				}
				crow[j] -= s
			}
		}
	}
	return true
}

// TRSMFast is the accelerator-class TRSM: same dependency pattern, with
// the dot products unrolled. It polls flag once per block of rows.
func TRSMFast(a, l []float64, b int, flag *cancel.Flag) bool {
	for i := 0; i < b; i++ {
		if i%blockDim == 0 && flag.Cancelled() {
			return false
		}
		row := a[i*b : (i+1)*b]
		for j := 0; j < b; j++ {
			lrow := l[j*b : (j+1)*b]
			var s float64
			k := 0
			for ; k+4 <= j; k += 4 {
				s += row[k]*lrow[k] + row[k+1]*lrow[k+1] +
					row[k+2]*lrow[k+2] + row[k+3]*lrow[k+3]
			}
			for ; k < j; k++ {
				s += row[k] * lrow[k]
			}
			row[j] = (row[j] - s) / lrow[j]
		}
	}
	return true
}
