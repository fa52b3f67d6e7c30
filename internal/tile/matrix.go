// Package tile implements the dense linear-algebra substrate behind the
// paper's workloads: square float64 tiles with the Cholesky, LU and QR
// kernels. Cholesky's TRSM, SYRK and GEMM and LU's GEMM-NT come in two
// implementations — a naive reference ("CPU-class") and a cache-blocked,
// loop-reordered variant ("accelerator-class", several times faster on
// the updates) — and the other kernels, POTRF among them, in one that
// both classes run. The speed gap between the two variants reproduces,
// with real computation, the affinity structure of Table 1: update
// kernels accelerate a lot, the panel factorization not at all. Every
// kernel polls a cancellation flag, so the runtime executor can spoliate
// a run in flight.
//
// Tiled drivers on top of the kernels provide the numerical ground truth
// used to validate the runtime executor.
package tile

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols, row-major
}

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tile: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// RandomSPD returns a random symmetric positive-definite n x n matrix:
// A = M*M^T + n*I with M uniform in [0,1).
func RandomSPD(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += m.At(i, k) * m.At(j, k)
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	return a
}

// MaxAbsDiff returns max |a_ij - b_ij|; the matrices must have identical
// shapes.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tile: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var d float64
	for i := range a.Data {
		d = math.Max(d, math.Abs(a.Data[i]-b.Data[i]))
	}
	return d
}

// LowerTimesTranspose returns L * L^T for a lower-triangular matrix stored
// in the lower part of l (upper part ignored).
func LowerTimesTranspose(l *Matrix) *Matrix {
	n := l.Rows
	out := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kmax := i
			if j < i {
				kmax = j
			}
			var s float64
			for k := 0; k <= kmax; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// Tiled is an n x n matrix partitioned into nt x nt square tiles of size
// b (n = nt*b). Tiles are stored contiguously so kernels enjoy locality.
type Tiled struct {
	NT int // tiles per dimension
	B  int // tile size
	// T[i*NT+j] is tile (i, j), a row-major B x B block.
	T [][]float64
}

// NewTiled partitions m (which must be square with size divisible by b).
func NewTiled(m *Matrix, b int) (*Tiled, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("tile: matrix %dx%d not square", m.Rows, m.Cols)
	}
	if b <= 0 || m.Rows%b != 0 {
		return nil, fmt.Errorf("tile: size %d not divisible by tile size %d", m.Rows, b)
	}
	nt := m.Rows / b
	td := &Tiled{NT: nt, B: b, T: make([][]float64, nt*nt)}
	for ti := 0; ti < nt; ti++ {
		for tj := 0; tj < nt; tj++ {
			t := make([]float64, b*b)
			for i := 0; i < b; i++ {
				copy(t[i*b:(i+1)*b], m.Data[(ti*b+i)*m.Cols+tj*b:(ti*b+i)*m.Cols+tj*b+b])
			}
			td.T[ti*nt+tj] = t
		}
	}
	return td, nil
}

// Tile returns tile (i, j).
func (td *Tiled) Tile(i, j int) []float64 { return td.T[i*td.NT+j] }

// Assemble reconstructs the dense matrix.
func (td *Tiled) Assemble() *Matrix {
	n := td.NT * td.B
	m := NewMatrix(n, n)
	for ti := 0; ti < td.NT; ti++ {
		for tj := 0; tj < td.NT; tj++ {
			t := td.Tile(ti, tj)
			for i := 0; i < td.B; i++ {
				copy(m.Data[(ti*td.B+i)*n+tj*td.B:(ti*td.B+i)*n+tj*td.B+td.B], t[i*td.B:(i+1)*td.B])
			}
		}
	}
	return m
}
