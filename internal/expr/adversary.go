package expr

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// AdversaryRow is the outcome of one worst-case search: the platform
// shape, the proven bound, the tight example's value, and the worst ratio
// the automated hill climber found against the exact optimum.
type AdversaryRow struct {
	CPUs, GPUs int
	Bound      float64
	WorstFound float64
	Tasks      int
	Evals      int
}

// AdversaryPool runs the automated worst-case search on the three
// platform shapes of Table 2 (kept tiny so the exact solver stays fast).
// It is the empirical companion of the Section 5 constructions: the
// search rediscovers golden-ratio-like instances on (1,1) without being
// told about phi. It fans out on p: one cell per platform shape. Each
// hill climb is seeded per shape, so parallel cells rediscover exactly
// the sequential run's instances.
func AdversaryPool(ctx context.Context, p *engine.Pool, iters int, seed int64) ([]AdversaryRow, error) {
	shapes := []struct{ m, n int }{{1, 1}, {3, 1}, {2, 2}}
	return engine.Map(ctx, p, engine.Job{Cells: len(shapes)}, func(_ context.Context, c engine.Cell) (AdversaryRow, error) {
		sh := shapes[c.Index]
		pl := platform.NewPlatform(sh.m, sh.n)
		res, err := adversary.Search(adversary.Config{
			Platform: pl,
			MaxTasks: 6,
			Iters:    iters,
			Seed:     seed,
		})
		if err != nil {
			return AdversaryRow{}, err
		}
		return AdversaryRow{
			CPUs: sh.m, GPUs: sh.n,
			Bound:      provenBound(pl),
			WorstFound: res.Ratio,
			Tasks:      len(res.Instance),
			Evals:      res.Evals,
		}, nil
	})
}

// AdversaryTable renders the rows.
func AdversaryTable(rows []AdversaryRow) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Adversarial search — worst HeteroPrio/optimum ratio found by hill climbing "+
			"vs the proven bounds (sup for (1,1) is phi = %.4f)", workloads.Phi),
		Columns: []string{"CPUs", "GPUs", "proven bound", "worst found", "tasks", "exact evals"},
	}
	for _, r := range rows {
		t.AddRow(r.CPUs, r.GPUs, r.Bound, r.WorstFound, r.Tasks, r.Evals)
	}
	return t
}
