package workloads

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dag"
	"repro/internal/platform"
)

// tileWriters tracks, for each tile of the matrix, the last task that wrote
// it; the next task touching the tile depends on it (true dependency chain
// of the in-place tiled algorithms).
type tileWriters struct {
	n    int
	last []int
}

func newTileWriters(n int) *tileWriters {
	tw := &tileWriters{n: n, last: make([]int, n*n)}
	for i := range tw.last {
		tw.last[i] = -1
	}
	return tw
}

func (tw *tileWriters) dep(g *dag.Graph, task, i, j int) {
	if w := tw.last[i*tw.n+j]; w >= 0 && w != task {
		g.AddEdge(w, task)
	}
}

func (tw *tileWriters) write(task, i, j int) { tw.last[i*tw.n+j] = task }

// Cholesky builds the task graph of the right-looking tiled Cholesky
// factorization of an N x N tile matrix:
//
//	for k = 0..N-1:
//	    POTRF(k,k)
//	    TRSM(i,k)            for i > k
//	    SYRK(i,k)  on (i,i)  for i > k
//	    GEMM(i,j,k) on (i,j) for k < j < i
//
// Task counts: N POTRF, N(N-1)/2 TRSM, N(N-1)/2 SYRK, N(N-1)(N-2)/6 GEMM.
func Cholesky(N int) *dag.Graph {
	validateTiles(N)
	g := dag.New()
	tw := newTileWriters(N)
	for k := 0; k < N; k++ {
		potrf := addKernelTask(g, DPOTRF, "POTRF", k, k, k)
		tw.dep(g, potrf, k, k)
		tw.write(potrf, k, k)
		trsm := make([]int, N)
		for i := k + 1; i < N; i++ {
			t := addKernelTask(g, DTRSM, "TRSM", i, k, k)
			g.AddEdge(potrf, t)
			tw.dep(g, t, i, k)
			tw.write(t, i, k)
			trsm[i] = t
		}
		for i := k + 1; i < N; i++ {
			for j := k + 1; j <= i; j++ {
				var t int
				if i == j {
					t = addKernelTask(g, DSYRK, "SYRK", i, i, k)
					g.AddEdge(trsm[i], t)
				} else {
					t = addKernelTask(g, DGEMM, "GEMM", i, j, k)
					g.AddEdge(trsm[i], t)
					g.AddEdge(trsm[j], t)
				}
				tw.dep(g, t, i, j)
				tw.write(t, i, j)
			}
		}
	}
	return g
}

// QR builds the task graph of the tiled QR factorization (flat reduction
// tree, the Chameleon default):
//
//	for k = 0..N-1:
//	    GEQRT(k,k)
//	    ORMQR(k,j,k)  for j > k
//	    TSQRT(i,k)    for i > k   (chained down column k)
//	    TSMQR(i,j,k)  for i > k, j > k (chained down each column j)
//
// Task counts: N GEQRT, N(N-1)/2 ORMQR, N(N-1)/2 TSQRT, N(N-1)(N-2)/... —
// TSMQR count is sum_k (N-1-k)^2 = (N-1)N(2N-1)/6.
func QR(N int) *dag.Graph {
	validateTiles(N)
	g := dag.New()
	tw := newTileWriters(N)
	for k := 0; k < N; k++ {
		geqrt := addKernelTask(g, DGEQRT, "GEQRT", k, k, k)
		tw.dep(g, geqrt, k, k)
		tw.write(geqrt, k, k)
		// Row updates of the panel factorization.
		rowOp := make([]int, N) // last op having updated tile (k,j) chain
		for j := k + 1; j < N; j++ {
			t := addKernelTask(g, DORMQR, "ORMQR", k, j, k)
			g.AddEdge(geqrt, t)
			tw.dep(g, t, k, j)
			tw.write(t, k, j)
			rowOp[j] = t
		}
		colOp := geqrt // chain of TSQRT down column k
		for i := k + 1; i < N; i++ {
			ts := addKernelTask(g, DTSQRT, "TSQRT", i, k, k)
			g.AddEdge(colOp, ts)
			tw.dep(g, ts, i, k)
			tw.write(ts, i, k)
			// TSQRT also updates the (k,k) R factor.
			tw.write(ts, k, k)
			colOp = ts
			for j := k + 1; j < N; j++ {
				t := addKernelTask(g, DTSMQR, "TSMQR", i, j, k)
				g.AddEdge(ts, t)
				g.AddEdge(rowOp[j], t)
				tw.dep(g, t, i, j)
				tw.write(t, i, j)
				// TSMQR updates both tiles (i,j) and (k,j).
				tw.write(t, k, j)
				rowOp[j] = t
			}
		}
	}
	return g
}

// LU builds the task graph of the tiled LU factorization without pivoting:
//
//	for k = 0..N-1:
//	    GETRF(k,k)
//	    TRSM(k,j,k) for j > k   (U panel)
//	    TRSM(i,k,k) for i > k   (L panel)
//	    GEMM(i,j,k) for i > k, j > k
//
// Task counts: N GETRF, N(N-1) TRSM, sum_k (N-1-k)^2 GEMM.
func LU(N int) *dag.Graph {
	validateTiles(N)
	g := dag.New()
	tw := newTileWriters(N)
	for k := 0; k < N; k++ {
		getrf := addKernelTask(g, DGETRF, "GETRF", k, k, k)
		tw.dep(g, getrf, k, k)
		tw.write(getrf, k, k)
		rowT := make([]int, N)
		colT := make([]int, N)
		for j := k + 1; j < N; j++ {
			t := addKernelTask(g, DTRSM, "TRSM", k, j, k)
			g.AddEdge(getrf, t)
			tw.dep(g, t, k, j)
			tw.write(t, k, j)
			rowT[j] = t
		}
		for i := k + 1; i < N; i++ {
			t := addKernelTask(g, DTRSM, "TRSM", i, k, k)
			g.AddEdge(getrf, t)
			tw.dep(g, t, i, k)
			tw.write(t, i, k)
			colT[i] = t
		}
		for i := k + 1; i < N; i++ {
			for j := k + 1; j < N; j++ {
				t := addKernelTask(g, DGEMM, "GEMM", i, j, k)
				g.AddEdge(colT[i], t)
				g.AddEdge(rowT[j], t)
				tw.dep(g, t, i, j)
				tw.write(t, i, j)
			}
		}
	}
	return g
}

// addKernelTask adds a kernel instance named like "GEMM(3,2,1)".
func addKernelTask(g *dag.Graph, k Kernel, op string, i, j, it int) int {
	t := k.Task()
	t.Name = tileName(op, i, j, it)
	return g.AddTask(t)
}

// tileName returns op followed by xs in parentheses, comma-separated:
// tileName("GEMM", 3, 2, 1) is "GEMM(3,2,1)", the bytes
// fmt.Sprintf("%s(%d,%d,%d)", ...) gives. It formats into a stack
// buffer, so the string is its only allocation.
func tileName(op string, xs ...int) string {
	var buf [32]byte
	b := append(buf[:0], op...)
	for i, x := range xs {
		if i == 0 {
			b = append(b, '(')
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(append(b, ')'))
}

// ParseTaskName reads a factorization task's kernel and tile coordinates
// back from its name, the inverse of tileName on three coordinates:
// "GEMM(3,2,1)" gives "GEMM", 3, 2, 1.
func ParseTaskName(name string) (op string, i, j, k int, err error) {
	op, args, ok := strings.Cut(name, "(")
	args, closed := strings.CutSuffix(args, ")")
	xs := strings.Split(args, ",")
	ok = ok && closed && op != "" && len(xs) == 3
	var ijk [3]int
	for n := 0; ok && n < 3; n++ {
		ijk[n], err = strconv.Atoi(xs[n])
		ok = err == nil
	}
	if !ok {
		return "", 0, 0, 0, fmt.Errorf("workloads: %q is not a kernel name like GEMM(3,2,1)", name)
	}
	return op, ijk[0], ijk[1], ijk[2], nil
}

// Factorization names a workload family used across the experiments.
type Factorization string

const (
	FactCholesky Factorization = "cholesky"
	FactQR       Factorization = "qr"
	FactLU       Factorization = "lu"
)

// Factorizations lists the three families in the paper's order.
func Factorizations() []Factorization {
	return []Factorization{FactCholesky, FactQR, FactLU}
}

// Build returns the task graph of the factorization with N tiles. An
// unknown factorization or N < 1 is an error.
func Build(f Factorization, N int) (*dag.Graph, error) {
	var build func(int) *dag.Graph
	switch f {
	case FactCholesky:
		build = Cholesky
	case FactQR:
		build = QR
	case FactLU:
		build = LU
	default:
		return nil, fmt.Errorf("workloads: unknown factorization %q", f)
	}
	if N < 1 {
		return nil, fmt.Errorf("workloads: %s needs at least one tile, got N = %d", f, N)
	}
	return build(N), nil
}

// IndependentTasks returns the tasks of the factorization as an
// independent instance (the Section 6.1 setting: the measured kernel
// instances of one factorization, dependencies dropped).
func IndependentTasks(f Factorization, N int) (platform.Instance, error) {
	g, err := Build(f, N)
	if err != nil {
		return nil, err
	}
	return g.Tasks().Clone(), nil
}
