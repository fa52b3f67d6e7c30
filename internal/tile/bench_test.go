package tile

import (
	"fmt"
	"math/rand"
	"testing"
)

// The kernel benches document the *real* acceleration factors of the two
// implementation classes — the measured analogue of Table 1 for this
// substrate (run with -bench=Kernel to compare ns/op of the pairs).

func benchTiles(b *testing.B, n int) (x, y, c []float64) {
	rng := rand.New(rand.NewSource(1))
	mk := func() []float64 {
		t := make([]float64, n*n)
		for i := range t {
			t[i] = rng.Float64()
		}
		return t
	}
	b.Helper()
	return mk(), mk(), mk()
}

func BenchmarkKernelGEMMRef(b *testing.B) {
	for _, n := range []int{64, 128} {
		b.Run(fmt.Sprintf("b=%d", n), func(b *testing.B) {
			x, y, c := benchTiles(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GEMM(c, x, y, n, nil)
			}
		})
	}
}

func BenchmarkKernelGEMMFast(b *testing.B) {
	for _, n := range []int{64, 128} {
		b.Run(fmt.Sprintf("b=%d", n), func(b *testing.B) {
			x, y, c := benchTiles(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GEMMFast(c, x, y, n, nil)
			}
		})
	}
}

func BenchmarkKernelSYRKRef(b *testing.B) {
	x, _, c := benchTiles(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SYRK(c, x, 128, nil)
	}
}

func BenchmarkKernelSYRKFast(b *testing.B) {
	x, _, c := benchTiles(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SYRKFast(c, x, 128, nil)
	}
}

func BenchmarkKernelPOTRF(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	src := RandomSPD(128, rng)
	work := make([]float64, len(src.Data))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src.Data)
		if _, err := POTRF(work, 128, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelGEQRT(b *testing.B) {
	x, _, _ := benchTiles(b, 128)
	t := make([]float64, 128*128)
	work := make([]float64, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		GEQRT(work, t, 128, nil)
	}
}

func BenchmarkCholeskyTiled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := RandomSPD(384, rng)
	for _, v := range []Variant{Reference, Fast} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				td, err := NewTiled(a, 96)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := CholeskyTiled(td, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
