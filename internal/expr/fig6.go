package expr

import (
	"context"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig6Row is one point of Figure 6: one kernel family, one tile count, the
// area bound and each algorithm's ratio to it.
type Fig6Row struct {
	Kernel    workloads.Factorization
	N         int
	Tasks     int
	AreaBound float64
	// Ratio maps algorithm name to makespan / area bound.
	Ratio map[string]float64
}

// Fig6Pool reproduces Figure 6 ("Results for independent tasks"): for
// each factorization kernel family and tile count, the kernel instances
// are scheduled as independent tasks by HeteroPrio, DualHP and HEFT, and
// compared against the area bound. It fans out on p: one cell per
// (kernel, tile count) pair. Cells are pure functions of their pair, so
// rows come back in the sequential loop's order whatever the pool width.
func Fig6Pool(ctx context.Context, p *engine.Pool, Ns []int, pl platform.Platform) ([]Fig6Row, error) {
	cells := factorizationCells(Ns)
	return engine.Map(ctx, p, engine.Job{Cells: len(cells)}, func(_ context.Context, c engine.Cell) (Fig6Row, error) {
		fact, N := cells[c.Index].fact, cells[c.Index].n
		in, err := workloads.IndependentTasks(fact, N)
		if err != nil {
			return Fig6Row{}, err
		}
		lb, err := bounds.AreaBound(in, pl)
		if err != nil {
			return Fig6Row{}, err
		}
		row := Fig6Row{
			Kernel:    fact,
			N:         N,
			Tasks:     len(in),
			AreaBound: lb,
			Ratio:     map[string]float64{},
		}
		for _, alg := range IndepAlgorithms() {
			s, err := RunIndependent(alg, in, pl)
			if err != nil {
				return Fig6Row{}, err
			}
			if err := s.Validate(in, nil); err != nil {
				return Fig6Row{}, err
			}
			row.Ratio[alg] = s.Makespan() / lb
		}
		return row, nil
	})
}

// Fig6Table renders the rows as a table with one column per algorithm.
func Fig6Table(rows []Fig6Row) *stats.Table {
	t := &stats.Table{
		Title:   "Figure 6 — independent tasks, ratio to area bound (platform 20 CPUs + 4 GPUs)",
		Columns: append([]string{"kernel", "N", "tasks", "area bound (ms)"}, IndepAlgorithms()...),
	}
	for _, r := range rows {
		vals := []interface{}{string(r.Kernel), r.N, r.Tasks, r.AreaBound}
		for _, alg := range IndepAlgorithms() {
			vals = append(vals, r.Ratio[alg])
		}
		t.AddRow(vals...)
	}
	return t
}
