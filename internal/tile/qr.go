package tile

import (
	"fmt"
	"math"

	"repro/internal/cancel"
)

// Tiled QR factorization (flat tree, compact-WY representation), the third
// real factorization of the substrate. Conventions per tile (row-major,
// b x b):
//
//	GEQRT(a, t):   QR of one tile. R lands in the upper triangle of a
//	               (incl. diagonal), the Householder vectors V in the
//	               strict lower triangle (unit diagonal implicit), and the
//	               T factor of the compact-WY form Q = I - V*T*V^T in t.
//	LARFB(c, v, t): c <- Q^T c for the GEQRT factors (v, t).
//	TSQRT(r, a, t): QR of the 2b x b stack [R; A] with R upper triangular
//	               (updated in place) and A full; V's bottom block lands
//	               in a, T in t. The top block of each Householder vector
//	               is the identity column e_j.
//	TSMQR(cTop, cBot, v, t): applies the TSQRT reflectors to the stacked
//	               pair [C_top; C_bot].
//
// The numerical test uses the identity A^T A = R^T R (Q orthonormal), so
// no explicit Q assembly is needed.

// GEQRT factors tile a in place and writes the T factor (b x b, upper
// triangular) into t. It polls flag once per column block.
func GEQRT(a, t []float64, b int, flag *cancel.Flag) bool {
	for i := range t {
		t[i] = 0
	}
	for j := 0; j < b; j++ {
		if j%blockDim == 0 && flag.Cancelled() {
			return false
		}
		// Householder vector for column j.
		alpha := a[j*b+j]
		var normx2 float64
		for i := j + 1; i < b; i++ {
			normx2 += a[i*b+j] * a[i*b+j]
		}
		var tau float64
		if normx2 == 0 {
			// Column already reduced; reflector is the identity.
			t[j*b+j] = 0
			continue
		}
		beta := -math.Copysign(math.Sqrt(alpha*alpha+normx2), alpha)
		tau = (beta - alpha) / beta
		scale := 1 / (alpha - beta)
		for i := j + 1; i < b; i++ {
			a[i*b+j] *= scale
		}
		a[j*b+j] = beta
		// Apply (I - tau v v^T) to the remaining columns.
		for k := j + 1; k < b; k++ {
			w := a[j*b+k]
			for i := j + 1; i < b; i++ {
				w += a[i*b+j] * a[i*b+k]
			}
			w *= tau
			a[j*b+k] -= w
			for i := j + 1; i < b; i++ {
				a[i*b+k] -= a[i*b+j] * w
			}
		}
		// T factor column: T[0:j, j] = -tau * T[0:j, 0:j] * (V^T v_j).
		t[j*b+j] = tau
		if j > 0 {
			z := make([]float64, j)
			for c := 0; c < j; c++ {
				// v^(c)T v^(j): v^(c) has 1 at row c and entries below.
				s := a[j*b+c] // v^(c)[j] * v^(j)[j] with v^(j)[j] = 1
				for i := j + 1; i < b; i++ {
					s += a[i*b+c] * a[i*b+j]
				}
				z[c] = s
			}
			for r := 0; r < j; r++ {
				var s float64
				for c := r; c < j; c++ {
					s += t[r*b+c] * z[c]
				}
				t[r*b+j] = -tau * s
			}
		}
	}
	return true
}

// LARFB applies Q^T = I - V T^T V^T (GEQRT factors v, t) to tile c. It
// polls flag once per row block of the intermediate W computation.
func LARFB(c, v, t []float64, b int, flag *cancel.Flag) bool {
	// W = V^T C, with V unit lower triangular (strict lower of v).
	w := make([]float64, b*b)
	for j := 0; j < b; j++ {
		if j%blockDim == 0 && flag.Cancelled() {
			return false
		}
		for k := 0; k < b; k++ {
			s := c[j*b+k]
			for i := j + 1; i < b; i++ {
				s += v[i*b+j] * c[i*b+k]
			}
			w[j*b+k] = s
		}
	}
	// W = T^T W (T upper triangular => T^T lower).
	for j := b - 1; j >= 0; j-- {
		for k := 0; k < b; k++ {
			var s float64
			for r := 0; r <= j; r++ {
				s += t[r*b+j] * w[r*b+k]
			}
			w[j*b+k] = s
		}
	}
	// C -= V W.
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			s := w[i*b+k] // unit diagonal contribution
			for j := 0; j < i; j++ {
				s += v[i*b+j] * w[j*b+k]
			}
			c[i*b+k] -= s
		}
	}
	return true
}

// TSQRT factors the stack [R; A] in place: r (upper triangular) is
// updated, a receives the bottom blocks of the Householder vectors, t the
// T factor. It polls flag once per column block.
func TSQRT(r, a, t []float64, b int, flag *cancel.Flag) bool {
	for i := range t {
		t[i] = 0
	}
	for j := 0; j < b; j++ {
		if j%blockDim == 0 && flag.Cancelled() {
			return false
		}
		alpha := r[j*b+j]
		var normx2 float64
		for i := 0; i < b; i++ {
			normx2 += a[i*b+j] * a[i*b+j]
		}
		if normx2 == 0 {
			t[j*b+j] = 0
			continue
		}
		beta := -math.Copysign(math.Sqrt(alpha*alpha+normx2), alpha)
		tau := (beta - alpha) / beta
		scale := 1 / (alpha - beta)
		for i := 0; i < b; i++ {
			a[i*b+j] *= scale
		}
		r[j*b+j] = beta
		// Apply to remaining columns: top part of v is e_j.
		for k := j + 1; k < b; k++ {
			w := r[j*b+k]
			for i := 0; i < b; i++ {
				w += a[i*b+j] * a[i*b+k]
			}
			w *= tau
			r[j*b+k] -= w
			for i := 0; i < b; i++ {
				a[i*b+k] -= a[i*b+j] * w
			}
		}
		t[j*b+j] = tau
		if j > 0 {
			z := make([]float64, j)
			for c := 0; c < j; c++ {
				// Tops e_c and e_j are orthogonal for c != j.
				var s float64
				for i := 0; i < b; i++ {
					s += a[i*b+c] * a[i*b+j]
				}
				z[c] = s
			}
			for rr := 0; rr < j; rr++ {
				var s float64
				for c := rr; c < j; c++ {
					s += t[rr*b+c] * z[c]
				}
				t[rr*b+j] = -tau * s
			}
		}
	}
	return true
}

// TSMQR applies the TSQRT reflectors (v bottom block, t) to the stacked
// pair [C_top; C_bot]. It polls flag once per row block of the
// intermediate W computation.
func TSMQR(cTop, cBot, v, t []float64, b int, flag *cancel.Flag) bool {
	// W = C_top + V^T C_bot.
	w := make([]float64, b*b)
	for j := 0; j < b; j++ {
		if j%blockDim == 0 && flag.Cancelled() {
			return false
		}
		for k := 0; k < b; k++ {
			s := cTop[j*b+k]
			for i := 0; i < b; i++ {
				s += v[i*b+j] * cBot[i*b+k]
			}
			w[j*b+k] = s
		}
	}
	// W = T^T W.
	for j := b - 1; j >= 0; j-- {
		for k := 0; k < b; k++ {
			var s float64
			for r := 0; r <= j; r++ {
				s += t[r*b+j] * w[r*b+k]
			}
			w[j*b+k] = s
		}
	}
	// C_top -= W; C_bot -= V W.
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			cTop[i*b+k] -= w[i*b+k]
		}
	}
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			var s float64
			for j := 0; j < b; j++ {
				s += v[i*b+j] * w[j*b+k]
			}
			cBot[i*b+k] -= s
		}
	}
	return true
}

// QRTiled factors the tiled matrix in place with the flat-tree tiled QR.
// After the call, the block upper triangle holds R and the lower parts
// hold the Householder blocks. It returns nothing extra; use QRExtractR
// for the triangular factor.
func QRTiled(td *Tiled) error {
	nt, b := td.NT, td.B
	t1 := make([]float64, b*b)
	t2 := make([]float64, b*b)
	for k := 0; k < nt; k++ {
		GEQRT(td.Tile(k, k), t1, b, nil)
		for j := k + 1; j < nt; j++ {
			LARFB(td.Tile(k, j), td.Tile(k, k), t1, b, nil)
		}
		for i := k + 1; i < nt; i++ {
			TSQRT(td.Tile(k, k), td.Tile(i, k), t2, b, nil)
			for j := k + 1; j < nt; j++ {
				TSMQR(td.Tile(k, j), td.Tile(i, j), td.Tile(i, k), t2, b, nil)
			}
		}
	}
	return nil
}

// QRExtractR returns the dense upper-triangular R factor of a QRTiled
// result.
func QRExtractR(td *Tiled) *Matrix {
	n := td.NT * td.B
	m := td.Assemble()
	r := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, m.At(i, j))
		}
	}
	return r
}

// GramDiff returns max |(A^T A - R^T R)_{ij}|, the orthogonality-free
// correctness measure of a QR factorization.
func GramDiff(a, r *Matrix) (float64, error) {
	if a.Rows != a.Cols || r.Rows != r.Cols || a.Rows != r.Rows {
		return 0, fmt.Errorf("tile: GramDiff shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, r.Rows, r.Cols)
	}
	n := a.Rows
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sa, sr float64
			for k := 0; k < n; k++ {
				sa += a.At(k, i) * a.At(k, j)
				sr += r.At(k, i) * r.At(k, j)
			}
			if d := math.Abs(sa - sr); d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}
