package tile

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cancel"
)

// ErrSingular is returned by GETRF on a (near-)zero pivot.
var ErrSingular = errors.New("tile: matrix is singular to working precision")

// The LU kernels implement the tiled LU factorization without pivoting
// (valid for diagonally dominant matrices, which the generators produce):
//
//	GETRF: A_kk -> L_kk \ U_kk   (unit lower / upper, packed in place)
//	TRSMLower: A_kj -> L_kk^-1 * A_kj      (row panel update)
//	TRSMUpper: A_ik -> A_ik * U_kk^-1      (column panel update)
//	GEMMNT: A_ij -= A_ik * A_kj
//
// Note the LU update is C -= A*B (no transpose), unlike the Cholesky
// GEMM's C -= A*B^T, so it gets its own kernel pair.

// GETRF factors the tile in place into unit-lower L and upper U. It
// polls flag once per pivot block.
func GETRF(a []float64, b int, flag *cancel.Flag) (bool, error) {
	for k := 0; k < b; k++ {
		if k%blockDim == 0 && flag.Cancelled() {
			return false, nil
		}
		pivot := a[k*b+k]
		if math.Abs(pivot) < 1e-12 {
			return true, fmt.Errorf("%w (pivot %d = %v)", ErrSingular, k, pivot)
		}
		for i := k + 1; i < b; i++ {
			a[i*b+k] /= pivot
			l := a[i*b+k]
			for j := k + 1; j < b; j++ {
				a[i*b+j] -= l * a[k*b+j]
			}
		}
	}
	return true, nil
}

// TRSMLower solves L * X = A in place (L unit lower triangular from a
// GETRF'd tile; only its strictly lower part is read). It polls flag once
// per block of rows, from the first; row 0 is left as it is.
func TRSMLower(a, l []float64, b int, flag *cancel.Flag) bool {
	for i := 0; i < b; i++ {
		if i%blockDim == 0 && flag.Cancelled() {
			return false
		}
		for k := 0; k < i; k++ {
			lik := l[i*b+k]
			if lik == 0 {
				continue
			}
			arow := a[k*b : (k+1)*b]
			xrow := a[i*b : (i+1)*b]
			for j := 0; j < b; j++ {
				xrow[j] -= lik * arow[j]
			}
		}
	}
	return true
}

// TRSMUpper solves X * U = A in place (U upper triangular from a GETRF'd
// tile, including its diagonal). It polls flag once per block of rows.
func TRSMUpper(a, u []float64, b int, flag *cancel.Flag) bool {
	for i := 0; i < b; i++ {
		if i%blockDim == 0 && flag.Cancelled() {
			return false
		}
		row := a[i*b : (i+1)*b]
		for j := 0; j < b; j++ {
			s := row[j]
			for k := 0; k < j; k++ {
				s -= row[k] * u[k*b+j]
			}
			row[j] = s / u[j*b+j]
		}
	}
	return true
}

// GEMMNT updates c -= a * b2 (no transpose), naive loop order. It polls
// flag once per row.
func GEMMNT(c, a, b2 []float64, b int, flag *cancel.Flag) bool {
	for i := 0; i < b; i++ {
		if flag.Cancelled() {
			return false
		}
		for j := 0; j < b; j++ {
			s := c[i*b+j]
			for k := 0; k < b; k++ {
				s -= a[i*b+k] * b2[k*b+j]
			}
			c[i*b+j] = s
		}
	}
	return true
}

// GEMMNTFast is the blocked variant of GEMMNT (ikj order with row reuse).
// It polls flag once per k panel.
func GEMMNTFast(c, a, b2 []float64, b int, flag *cancel.Flag) bool {
	for kk := 0; kk < b; kk += blockDim {
		if flag.Cancelled() {
			return false
		}
		kmax := min(kk+blockDim, b)
		for i := 0; i < b; i++ {
			arow := a[i*b : (i+1)*b]
			crow := c[i*b : (i+1)*b]
			for k := kk; k < kmax; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				brow := b2[k*b : (k+1)*b]
				for j := 0; j < b; j++ {
					crow[j] -= aik * brow[j]
				}
			}
		}
	}
	return true
}

// LUTiled factors the tiled matrix in place with the right-looking tiled
// LU without pivoting; fast selects the blocked GEMM.
func LUTiled(td *Tiled, fast bool) error {
	gemm := GEMMNT
	if fast {
		gemm = GEMMNTFast
	}
	nt, b := td.NT, td.B
	for k := 0; k < nt; k++ {
		if _, err := GETRF(td.Tile(k, k), b, nil); err != nil {
			return fmt.Errorf("tile: GETRF(%d): %w", k, err)
		}
		for j := k + 1; j < nt; j++ {
			TRSMLower(td.Tile(k, j), td.Tile(k, k), b, nil)
		}
		for i := k + 1; i < nt; i++ {
			TRSMUpper(td.Tile(i, k), td.Tile(k, k), b, nil)
		}
		for i := k + 1; i < nt; i++ {
			for j := k + 1; j < nt; j++ {
				gemm(td.Tile(i, j), td.Tile(i, k), td.Tile(k, j), b, nil)
			}
		}
	}
	return nil
}

// LUDense factors a copy of the matrix with unblocked LU (no pivoting) and
// returns the packed L\U factors — ground truth for tests.
func LUDense(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("tile: matrix %dx%d not square", a.Rows, a.Cols)
	}
	lu := a.Clone()
	if _, err := GETRF(lu.Data, lu.Rows, nil); err != nil {
		return nil, err
	}
	return lu, nil
}

// LUReconstruct multiplies the packed factors back: returns L*U where L is
// unit lower and U upper, both packed in lu.
func LUReconstruct(lu *Matrix) *Matrix {
	n := lu.Rows
	out := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kmax := min(i, j)
			var s float64
			for k := 0; k <= kmax; k++ {
				lv := lu.At(i, k)
				if k == i {
					lv = 1
				}
				var uv float64
				if k <= j {
					uv = lu.At(k, j)
				}
				s += lv * uv
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// RandomDiagDominant returns a random diagonally dominant matrix (safe for
// LU without pivoting).
func RandomDiagDominant(n int, rng interface{ Float64() float64 }) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.Float64()*2 - 1
			m.Set(i, j, v)
			sum += math.Abs(v)
		}
		m.Set(i, i, sum+1+rng.Float64())
	}
	return m
}
