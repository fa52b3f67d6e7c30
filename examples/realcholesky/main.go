// Realcholesky: factor a real SPD matrix with the real-time HeteroPrio
// runtime — the miniature of the StarPU integration the paper's conclusion
// announces. Worker goroutines of the "CPU class" run naive kernels and
// the "GPU class" runs blocked, loop-reordered kernels, so the
// acceleration factors are real and measured, not simulated. The result
// is verified numerically against a dense reference factorization: the
// command exits 1 when any entry of L is off by 1e-8 or more.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"strconv"

	"repro/internal/runtime"
	"repro/internal/tile"
)

func main() {
	n, b := 480, 96
	if len(os.Args) > 1 {
		v, err := strconv.Atoi(os.Args[1])
		if err != nil || v <= 0 || v%b != 0 {
			log.Fatalf("usage: realcholesky [positive size divisible by %d]", b)
		}
		n = v
	}
	rng := rand.New(rand.NewSource(42))

	fmt.Printf("calibrating kernels (tile %dx%d)...\n", b, b)
	est := runtime.CalibrateCholesky(b, rng)
	fmt.Printf("  POTRF: ref %.3fms  fast %.3fms  (accel %.1fx)\n", est.POTRF[0]*1e3, est.POTRF[1]*1e3, est.POTRF[0]/est.POTRF[1])
	fmt.Printf("  TRSM:  ref %.3fms  fast %.3fms  (accel %.1fx)\n", est.TRSM[0]*1e3, est.TRSM[1]*1e3, est.TRSM[0]/est.TRSM[1])
	fmt.Printf("  SYRK:  ref %.3fms  fast %.3fms  (accel %.1fx)\n", est.SYRK[0]*1e3, est.SYRK[1]*1e3, est.SYRK[0]/est.SYRK[1])
	fmt.Printf("  GEMM:  ref %.3fms  fast %.3fms  (accel %.1fx)\n", est.GEMM[0]*1e3, est.GEMM[1]*1e3, est.GEMM[0]/est.GEMM[1])

	fmt.Printf("\nfactoring a %dx%d SPD matrix (%d tiles of %d)...\n", n, n, (n/b)*(n/b), b)
	a := tile.RandomSPD(n, rng)
	want, err := tile.CholeskyDense(a)
	if err != nil {
		log.Fatal(err)
	}

	td, err := tile.NewTiled(a, b)
	if err != nil {
		log.Fatal(err)
	}
	g, err := runtime.CholeskyGraph(td, est)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := runtime.Run(g, runtime.Config{
		CPUWorkers:    3, // slow class: naive kernels
		GPUWorkers:    1, // fast class: blocked kernels
		UsePriorities: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	got := td.Assemble()
	var maxErr float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			maxErr = math.Max(maxErr, math.Abs(got.At(i, j)-want.At(i, j)))
		}
	}

	wrong := !(maxErr < 1e-8) // a NaN error is wrong too
	verdict := "numerically correct"
	if wrong {
		verdict = "WRONG"
	}
	fmt.Printf("\n%d tasks in %v, %d spoliations\n", g.Len(), rep.Wall, rep.Spoliations)
	fmt.Printf("max |L - L_ref| = %.2e  (%s)\n", maxErr, verdict)
	fmt.Printf("\nmeasured trace (x = aborted/spoliated run):\n")
	fmt.Print(rep.Trace.Gantt(100))
	if wrong {
		os.Exit(1)
	}
}
