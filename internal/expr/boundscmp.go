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

// BoundsCmpRow compares the lower-bound variants on one DAG workload,
// together with the best heuristic makespan (HeteroPrio-min) so the
// remaining gap is visible.
type BoundsCmpRow struct {
	Kernel workloads.Factorization
	N      int
	// Area is the plain divisible-load bound, CP the min-duration critical
	// path, Base their max (the Figure 7 baseline), Refined the
	// dependency-restricted sweep, HP the HeteroPrio-min makespan.
	Area, CP, Base, Refined, HP float64
}

// BoundsCmpPool computes the rows for every factorization at the given
// tile counts. It fans out on p: one cell per (kernel, tile count) pair.
// The refined sweep is the most expensive bound and gains the most from
// the fan-out.
func BoundsCmpPool(ctx context.Context, p *engine.Pool, Ns []int, pl platform.Platform) ([]BoundsCmpRow, error) {
	cells := factorizationCells(Ns)
	return engine.Map(ctx, p, engine.Job{Cells: len(cells)}, func(_ context.Context, c engine.Cell) (BoundsCmpRow, error) {
		fact, N := cells[c.Index].fact, cells[c.Index].n
		g, err := workloads.Build(fact, N)
		if err != nil {
			return BoundsCmpRow{}, err
		}
		area, err := bounds.AreaBound(g.Tasks(), pl)
		if err != nil {
			return BoundsCmpRow{}, err
		}
		cp, err := g.CriticalPath(dag.WeightMin, pl)
		if err != nil {
			return BoundsCmpRow{}, err
		}
		base, err := bounds.DAGLower(g, pl)
		if err != nil {
			return BoundsCmpRow{}, err
		}
		refined, err := bounds.DAGLowerRefined(g, pl)
		if err != nil {
			return BoundsCmpRow{}, err
		}
		if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
			return BoundsCmpRow{}, err
		}
		res, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true})
		if err != nil {
			return BoundsCmpRow{}, err
		}
		return BoundsCmpRow{
			Kernel: fact, N: N,
			Area: area, CP: cp, Base: base, Refined: refined,
			HP: res.Makespan(),
		}, nil
	})
}

// BoundsCmpTable renders the rows.
func BoundsCmpTable(rows []BoundsCmpRow) *stats.Table {
	t := &stats.Table{
		Title: "Lower bounds — area vs critical path vs refined sweep, against the HeteroPrio-min makespan",
		Columns: []string{"kernel", "N", "area", "critical path", "base = max",
			"refined sweep", "HeteroPrio-min", "gap base", "gap refined"},
	}
	for _, r := range rows {
		t.AddRow(string(r.Kernel), r.N, r.Area, r.CP, r.Base, r.Refined, r.HP,
			r.HP/r.Base, r.HP/r.Refined)
	}
	return t
}
