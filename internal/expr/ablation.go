package expr

import (
	"context"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// AblationRow compares HeteroPrio design choices on one DAG workload:
// the full algorithm, the algorithm without spoliation, and the algorithm
// without priority tie-breaking. Ratios are to the DAG lower bound.
type AblationRow struct {
	Kernel workloads.Factorization
	N      int
	// Full is HeteroPrio with min priorities and spoliation.
	Full float64
	// NoSpoliation disables the spoliation mechanism.
	NoSpoliation float64
	// NoPriorities keeps spoliation but drops the tie-breaking scheme.
	NoPriorities float64
	// Spoliations is the number of aborted runs in the full algorithm.
	Spoliations int
}

// AblationPool quantifies the contribution of spoliation and priorities
// to HeteroPrio's DAG performance (the design choices DESIGN.md calls
// out). It fans out on p: one cell per (kernel, tile count) pair, running
// the three scheduler variants back to back on its own graph.
func AblationPool(ctx context.Context, p *engine.Pool, Ns []int, pl platform.Platform) ([]AblationRow, error) {
	cells := factorizationCells(Ns)
	return engine.Map(ctx, p, engine.Job{Cells: len(cells)}, func(_ context.Context, c engine.Cell) (AblationRow, error) {
		fact, N := cells[c.Index].fact, cells[c.Index].n
		g, err := workloads.Build(fact, N)
		if err != nil {
			return AblationRow{}, err
		}
		lb, err := bounds.DAGLower(g, pl)
		if err != nil {
			return AblationRow{}, err
		}
		if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
			return AblationRow{}, err
		}
		full, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true})
		if err != nil {
			return AblationRow{}, err
		}
		noSpol, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true, DisableSpoliation: true})
		if err != nil {
			return AblationRow{}, err
		}
		noPrio, err := core.ScheduleDAG(g, pl, core.Options{})
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Kernel:       fact,
			N:            N,
			Full:         full.Makespan() / lb,
			NoSpoliation: noSpol.Makespan() / lb,
			NoPriorities: noPrio.Makespan() / lb,
			Spoliations:  full.Spoliations,
		}, nil
	})
}

// AblationTable renders the ablation rows.
func AblationTable(rows []AblationRow) *stats.Table {
	t := &stats.Table{
		Title: "Ablation — HeteroPrio design choices (ratio to DAG lower bound)",
		Columns: []string{"kernel", "N", "full (min prio + spoliation)",
			"no spoliation", "no priorities", "spoliations"},
	}
	for _, r := range rows {
		t.AddRow(string(r.Kernel), r.N, r.Full, r.NoSpoliation, r.NoPriorities, r.Spoliations)
	}
	return t
}
