package expr

import (
	"context"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig7Row is one point of Figures 7, 8 and 9: one kernel family, one tile
// count, and per-algorithm metrics of the produced schedule.
type Fig7Row struct {
	Kernel workloads.Factorization
	N      int
	Tasks  int
	// Lower is the DAG-aware lower bound (area bound + critical path).
	Lower float64
	// Ratio maps algorithm to makespan / Lower (Figure 7).
	Ratio map[string]float64
	// EquivAccel maps algorithm to the equivalent acceleration factor of
	// the tasks executed on each class (Figure 8).
	EquivAccel map[string]map[platform.Kind]float64
	// NormIdle maps algorithm to the normalized idle time per class
	// (Figure 9): idle time (aborted work counts as idle) divided by the
	// class usage in the area-bound solution.
	NormIdle map[string]map[platform.Kind]float64
}

// Fig7Pool reproduces Figures 7-9 ("Results for different DAGs",
// "Equivalent acceleration factors", "Normalized idle time"): the seven
// algorithms on Cholesky/QR/LU task graphs. It fans out on p: one cell
// per (kernel, tile count) pair, each building its own graph so cells
// share no mutable state.
func Fig7Pool(ctx context.Context, p *engine.Pool, Ns []int, pl platform.Platform) ([]Fig7Row, error) {
	cells := factorizationCells(Ns)
	return engine.Map(ctx, p, engine.Job{Cells: len(cells)}, func(_ context.Context, c engine.Cell) (Fig7Row, error) {
		fact, N := cells[c.Index].fact, cells[c.Index].n
		g, err := workloads.Build(fact, N)
		if err != nil {
			return Fig7Row{}, err
		}
		lb, err := bounds.DAGLower(g, pl)
		if err != nil {
			return Fig7Row{}, err
		}
		area, err := bounds.Area(g.Tasks(), pl)
		if err != nil {
			return Fig7Row{}, err
		}
		// Class usage in the lower-bound solution, the Figure 9
		// normalizer.
		usage := map[platform.Kind]float64{}
		for _, t := range g.Tasks() {
			x := area.CPUFraction[t.ID]
			usage[platform.CPU] += x * t.CPUTime
			usage[platform.GPU] += (1 - x) * t.GPUTime
		}
		row := Fig7Row{
			Kernel:     fact,
			N:          N,
			Tasks:      g.Len(),
			Lower:      lb,
			Ratio:      map[string]float64{},
			EquivAccel: map[string]map[platform.Kind]float64{},
			NormIdle:   map[string]map[platform.Kind]float64{},
		}
		for _, alg := range DAGAlgorithms() {
			s, err := RunDAG(alg, g, pl)
			if err != nil {
				return Fig7Row{}, err
			}
			if err := s.Validate(g.Tasks(), g); err != nil {
				return Fig7Row{}, err
			}
			row.Ratio[alg] = s.Makespan() / lb
			row.EquivAccel[alg] = map[platform.Kind]float64{
				platform.CPU: s.EquivalentAccel(g.Tasks(), platform.CPU),
				platform.GPU: s.EquivalentAccel(g.Tasks(), platform.GPU),
			}
			row.NormIdle[alg] = map[platform.Kind]float64{
				platform.CPU: s.NormalizedIdleTime(platform.CPU, usage[platform.CPU]),
				platform.GPU: s.NormalizedIdleTime(platform.GPU, usage[platform.GPU]),
			}
		}
		return row, nil
	})
}

// Fig7Table renders the makespan ratios (Figure 7).
func Fig7Table(rows []Fig7Row) *stats.Table {
	t := &stats.Table{
		Title:   "Figure 7 — DAGs, ratio to the dependency-aware lower bound",
		Columns: append([]string{"kernel", "N", "tasks", "lower bound (ms)"}, DAGAlgorithms()...),
	}
	for _, r := range rows {
		vals := []interface{}{string(r.Kernel), r.N, r.Tasks, r.Lower}
		for _, alg := range DAGAlgorithms() {
			vals = append(vals, r.Ratio[alg])
		}
		t.AddRow(vals...)
	}
	return t
}

// Fig8Table renders the equivalent acceleration factors (Figure 8).
func Fig8Table(rows []Fig7Row) *stats.Table {
	cols := []string{"kernel", "N"}
	for _, alg := range DAGAlgorithms() {
		cols = append(cols, alg+" CPU", alg+" GPU")
	}
	t := &stats.Table{
		Title:   "Figure 8 — equivalent acceleration factor of the tasks executed on each class",
		Columns: cols,
	}
	for _, r := range rows {
		vals := []interface{}{string(r.Kernel), r.N}
		for _, alg := range DAGAlgorithms() {
			vals = append(vals, r.EquivAccel[alg][platform.CPU], r.EquivAccel[alg][platform.GPU])
		}
		t.AddRow(vals...)
	}
	return t
}

// Fig9Table renders the normalized idle times (Figure 9).
func Fig9Table(rows []Fig7Row) *stats.Table {
	cols := []string{"kernel", "N"}
	for _, alg := range DAGAlgorithms() {
		cols = append(cols, alg+" CPU", alg+" GPU")
	}
	t := &stats.Table{
		Title:   "Figure 9 — normalized idle time per class (aborted work counts as idle)",
		Columns: cols,
	}
	for _, r := range rows {
		vals := []interface{}{string(r.Kernel), r.N}
		for _, alg := range DAGAlgorithms() {
			vals = append(vals, r.NormIdle[alg][platform.CPU], r.NormIdle[alg][platform.GPU])
		}
		t.AddRow(vals...)
	}
	return t
}
