package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/workloads"
)

// BenchmarkQueuePush measures the ready queue per task at several sizes:
// push every task, then drain the queue from alternating ends the way GPU
// and CPU workers do. Pushes only append; the sort happens at the first
// pop, so timing pushes alone would miss it.
func BenchmarkQueuePush(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tasks := make([]platform.Task, size)
			for i := range tasks {
				p := 1 + rng.Float64()*10
				tasks[i] = platform.Task{ID: i, CPUTime: p, GPUTime: p / (0.5 + rng.Float64()*20)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := NewQueue(false)
				for _, t := range tasks {
					q.Push(t)
				}
				for j := 0; q.Len() > 0; j++ {
					if j%2 == 0 {
						q.PopFront()
					} else {
						q.PopBack()
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/task")
		})
	}
}

// BenchmarkQueueBatchSort times ordering one pending batch of k keys in
// seq order, as flush does, with the comparison sort and with the radix
// sort, per key. The acceleration factors are log-uniform over [1/20, 20]
// with full mantissas, so every radix digit varies (the radix sort's
// worst case). radixMinBatch is the k from which the radix sort wins.
func BenchmarkQueueBatchSort(b *testing.B) {
	for _, k := range []int{32, 64, 128, 256, 512, 1024, 10000} {
		rng := rand.New(rand.NewSource(1))
		keys := make([]queueKey, k)
		for i := range keys {
			keys[i] = queueKey{accel: math.Exp((2*rng.Float64() - 1) * math.Log(20)), seq: i, slot: int32(i)}
		}
		work, buf := make([]queueKey, k), make([]queueKey, k)
		b.Run(fmt.Sprintf("sort=compare/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, keys)
				slices.SortFunc(work, compareKeys)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/key")
		})
		b.Run(fmt.Sprintf("sort=radix/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, keys)
				if _, ok := radixSortKeys(work, buf); !ok {
					b.Fatal("radix sort refused valid keys")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/key")
		})
	}
}

// BenchmarkScheduleIndependentSize measures end-to-end scheduling cost
// per task at growing instance sizes, 10² to 10⁵ tasks on 20+4: the
// paper's low-overhead claim holds if ns/task stays roughly flat.
func BenchmarkScheduleIndependentSize(b *testing.B) {
	pl := platform.NewPlatform(20, 4)
	for _, T := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("tasks=%d", T), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			in := workloads.UniformInstance(T, 1, 100, 0.2, 40, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ScheduleIndependent(in, pl, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*T), "ns/task")
		})
	}
}

// BenchmarkScheduleDAGCholeskySize measures the DAG event loop per task
// on the paper's flagship workload at growing tile counts.
func BenchmarkScheduleDAGCholeskySize(b *testing.B) {
	for _, N := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("N=%d", N), func(b *testing.B) {
			g := workloads.Cholesky(N)
			pl := platform.NewPlatform(20, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ScheduleDAG(g, pl, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.Len()), "ns/task")
		})
	}
}

// BenchmarkScheduleDAGWidth measures the DAG event loop per task on QR
// N=16 (1496 tasks) from 24 to 1024 workers, with min bottom-level
// priorities assigned outside the timed loop: the paper's low-overhead
// claim holds if ns/task stays roughly flat as the platform widens.
func BenchmarkScheduleDAGWidth(b *testing.B) {
	for _, pl := range []platform.Platform{
		platform.NewPlatform(20, 4), platform.NewPlatform(120, 24),
		platform.NewPlatform(480, 64), platform.NewPlatform(896, 128),
	} {
		b.Run(fmt.Sprintf("workers=%d", pl.Workers()), func(b *testing.B) {
			g := workloads.QR(16)
			if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ScheduleDAG(g, pl, Options{UsePriorities: true}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.Len()), "ns/task")
		})
	}
}
