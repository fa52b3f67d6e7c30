package expr

import (
	"context"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// KernelMixRow reports, for one algorithm on one factorization DAG, the
// fraction of each kernel type's instances executed on the GPU class.
// This quantifies the paper's Section 2.1 narrative: affinity-based
// scheduling should send GEMM/SYRK (factor ~28) to the GPUs and POTRF
// (factor 1.7) to the CPUs.
type KernelMixRow struct {
	Kernel    workloads.Factorization
	N         int
	Algorithm string
	// GPUShare maps kernel base name (POTRF, TRSM, ...) to the fraction of
	// its instances whose successful run executed on a GPU.
	GPUShare map[string]float64
}

// KernelMixPool computes the rows for every Figure 7 algorithm. It fans
// out on p: one cell per algorithm, each scheduling its own freshly built
// graph.
func KernelMixPool(ctx context.Context, p *engine.Pool, fact workloads.Factorization, N int, pl platform.Platform) ([]KernelMixRow, error) {
	algs := DAGAlgorithms()
	return engine.Map(ctx, p, engine.Job{Cells: len(algs)}, func(_ context.Context, c engine.Cell) (KernelMixRow, error) {
		alg := algs[c.Index]
		g, err := workloads.Build(fact, N)
		if err != nil {
			return KernelMixRow{}, err
		}
		s, err := RunDAG(alg, g, pl)
		if err != nil {
			return KernelMixRow{}, err
		}
		total := map[string]int{}
		gpu := map[string]int{}
		byID := g.Tasks().ByID()
		for _, e := range s.SuccessfulEntries() {
			name := kernelBase(byID[e.TaskID].Name)
			total[name]++
			if e.Kind == platform.GPU {
				gpu[name]++
			}
		}
		share := map[string]float64{}
		for name, c := range total {
			share[name] = float64(gpu[name]) / float64(c)
		}
		return KernelMixRow{Kernel: fact, N: N, Algorithm: alg, GPUShare: share}, nil
	})
}

// kernelBase strips the "(i,j,k)" suffix of generated task names.
func kernelBase(name string) string {
	if i := strings.IndexByte(name, '('); i > 0 {
		return name[:i]
	}
	return name
}

// KernelMixTable renders the rows with one column per kernel type.
func KernelMixTable(rows []KernelMixRow) *stats.Table {
	kernelSet := map[string]bool{}
	for _, r := range rows {
		for name := range r.GPUShare {
			kernelSet[name] = true
		}
	}
	kernels := make([]string, 0, len(kernelSet))
	for name := range kernelSet {
		kernels = append(kernels, name)
	}
	sort.Strings(kernels)
	t := &stats.Table{
		Title:   "Kernel mix — fraction of each kernel type executed on the GPU class",
		Columns: append([]string{"kernel", "N", "algorithm"}, kernels...),
	}
	for _, r := range rows {
		vals := []interface{}{string(r.Kernel), r.N, r.Algorithm}
		for _, k := range kernels {
			if share, ok := r.GPUShare[k]; ok {
				vals = append(vals, share)
			} else {
				vals = append(vals, "")
			}
		}
		t.AddRow(vals...)
	}
	return t
}
