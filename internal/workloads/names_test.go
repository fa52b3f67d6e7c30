package workloads

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
)

// The reference task lists below walk each generator's loops in task-ID
// order, recording every task's kernel and tile coordinates; refNames
// formats them with the fmt.Sprintf call the generators made before they
// formatted names themselves.

func refKernelName(op string, i, j, k int) string { return fmt.Sprintf("%s(%d,%d,%d)", op, i, j, k) }

// refTask is a kernel instance: its kernel and tile coordinates.
type refTask struct {
	op      string
	i, j, k int
}

func refNames(tasks []refTask) []string {
	out := make([]string, len(tasks))
	for id, t := range tasks {
		out[id] = refKernelName(t.op, t.i, t.j, t.k)
	}
	return out
}

func refCholeskyTasks(N int) []refTask {
	var out []refTask
	name := func(op string, i, j, k int) { out = append(out, refTask{op, i, j, k}) }
	for k := 0; k < N; k++ {
		name("POTRF", k, k, k)
		for i := k + 1; i < N; i++ {
			name("TRSM", i, k, k)
		}
		for i := k + 1; i < N; i++ {
			for j := k + 1; j <= i; j++ {
				if i == j {
					name("SYRK", i, i, k)
				} else {
					name("GEMM", i, j, k)
				}
			}
		}
	}
	return out
}

func refQRTasks(N int) []refTask {
	var out []refTask
	name := func(op string, i, j, k int) { out = append(out, refTask{op, i, j, k}) }
	for k := 0; k < N; k++ {
		name("GEQRT", k, k, k)
		for j := k + 1; j < N; j++ {
			name("ORMQR", k, j, k)
		}
		for i := k + 1; i < N; i++ {
			name("TSQRT", i, k, k)
			for j := k + 1; j < N; j++ {
				name("TSMQR", i, j, k)
			}
		}
	}
	return out
}

func refLUTasks(N int) []refTask {
	var out []refTask
	name := func(op string, i, j, k int) { out = append(out, refTask{op, i, j, k}) }
	for k := 0; k < N; k++ {
		name("GETRF", k, k, k)
		for j := k + 1; j < N; j++ {
			name("TRSM", k, j, k)
		}
		for i := k + 1; i < N; i++ {
			name("TRSM", i, k, k)
		}
		for i := k + 1; i < N; i++ {
			for j := k + 1; j < N; j++ {
				name("GEMM", i, j, k)
			}
		}
	}
	return out
}

func checkNames(t *testing.T, label string, g *dag.Graph, want []string) {
	t.Helper()
	if g.Len() != len(want) {
		t.Fatalf("%s: %d tasks, reference names %d", label, g.Len(), len(want))
	}
	for id, w := range want {
		if got := g.Task(id).Name; got != w {
			t.Fatalf("%s: task %d is named %q, want %q", label, id, got, w)
		}
	}
}

func TestFactorizationNamesMatchSprintf(t *testing.T) {
	for N := 1; N <= 24; N++ {
		checkNames(t, fmt.Sprintf("cholesky-%d", N), Cholesky(N), refNames(refCholeskyTasks(N)))
		checkNames(t, fmt.Sprintf("qr-%d", N), QR(N), refNames(refQRTasks(N)))
		checkNames(t, fmt.Sprintf("lu-%d", N), LU(N), refNames(refLUTasks(N)))
	}
}

// TestParseTaskNameRoundTrips: every factorization task's name parses back
// to the kernel and tile coordinates its generator loop gave it.
func TestParseTaskNameRoundTrips(t *testing.T) {
	for N := 1; N <= 24; N++ {
		for _, c := range []struct {
			label string
			g     *dag.Graph
			want  []refTask
		}{
			{"cholesky", Cholesky(N), refCholeskyTasks(N)},
			{"qr", QR(N), refQRTasks(N)},
			{"lu", LU(N), refLUTasks(N)},
		} {
			if c.g.Len() != len(c.want) {
				t.Fatalf("%s-%d: %d tasks, reference %d", c.label, N, c.g.Len(), len(c.want))
			}
			for id, w := range c.want {
				name := c.g.Task(id).Name
				op, i, j, k, err := ParseTaskName(name)
				if got := (refTask{op, i, j, k}); err != nil || got != w {
					t.Fatalf("%s-%d: task %d: ParseTaskName(%q) = %+v, %v; want %+v", c.label, N, id, name, got, err, w)
				}
			}
		}
	}
	for _, bad := range []string{"", "GEMM", "(1,2,3)", "GEMM(1,2)", "GEMM(1,2,3,4)", "GEMM(1,2,3", "GEMM(1,x,3)", "cell(1,2)", "chain0[1]"} {
		if op, i, j, k, err := ParseTaskName(bad); err == nil {
			t.Errorf("ParseTaskName(%q) = %q, %d, %d, %d; want an error", bad, op, i, j, k)
		}
	}
}

func TestStencilNamesMatchSprintf(t *testing.T) {
	for _, n := range []int{1, 2, 7, 24, 120} {
		var want []string
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want = append(want, fmt.Sprintf("cell(%d,%d)", i, j))
			}
		}
		checkNames(t, fmt.Sprintf("wavefront-%d", n), DefaultWavefront(n), want)
	}
	even, odd := platform.Task{CPUTime: 10, GPUTime: 1}, platform.Task{CPUTime: 2, GPUTime: 3}
	for _, cl := range [][2]int{{1, 1}, {3, 7}, {12, 110}, {1001, 2}} {
		var want []string
		for i := 0; i < cl[0]; i++ {
			for j := 0; j < cl[1]; j++ {
				want = append(want, fmt.Sprintf("chain%d[%d]", i, j))
			}
		}
		checkNames(t, fmt.Sprintf("chains-%dx%d", cl[0], cl[1]), BagOfChains(cl[0], cl[1], even, odd), want)
	}
}

// TestNameFormattersMatchSprintf covers what no generator reaches: negative
// numbers, and names longer than the formatters' stack buffer.
func TestNameFormattersMatchSprintf(t *testing.T) {
	for _, x := range [][3]int{{0, 0, 0}, {-1, 10, -100}, {math.MaxInt, math.MinInt, 7}} {
		if got, want := tileName("TSMQR", x[0], x[1], x[2]), refKernelName("TSMQR", x[0], x[1], x[2]); got != want {
			t.Errorf("tileName = %q, want %q", got, want)
		}
		if got, want := tileName("cell", x[0], x[1]), fmt.Sprintf("cell(%d,%d)", x[0], x[1]); got != want {
			t.Errorf("tileName = %q, want %q", got, want)
		}
		if got, want := chainName(x[1], x[2]), fmt.Sprintf("chain%d[%d]", x[1], x[2]); got != want {
			t.Errorf("chainName = %q, want %q", got, want)
		}
	}
}
