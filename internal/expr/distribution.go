package expr

import (
	"context"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// DistributionRow summarizes the ratio-to-lower-bound distribution of one
// algorithm over many random independent instances: typical behaviour
// (median), tail (p90/p99) and the worst draw. It quantifies the distance
// between the proven worst cases (Table 2) and what random instances
// actually exhibit.
type DistributionRow struct {
	Algorithm string
	Samples   int
	P50       float64
	P90       float64
	P99       float64
	Max       float64
}

// DistributionAlgorithms lists the schedulers of the distribution study.
func DistributionAlgorithms() []string {
	return []string{"HeteroPrio", "DualHP", "HEFT", "MCT"}
}

// DistributionPool draws `samples` random bimodal instances (the dense
// linear-algebra-like affinity mix) of `tasks` tasks on pl and summarizes
// each algorithm's ratio to the combined lower bound. It fans out on p:
// one cell per sample. Each cell derives its own RNG from (seed, sample
// index) — the earlier sequential version threaded one shared source
// through every sample, which would have made the draws depend on
// execution order.
func DistributionPool(ctx context.Context, p *engine.Pool, samples, tasks int, pl platform.Platform, seed int64) ([]DistributionRow, error) {
	perSample, err := engine.Map(ctx, p, engine.Job{Cells: samples, Seed: seed}, func(_ context.Context, c engine.Cell) (map[string]float64, error) {
		rng := c.Rand()
		in := workloads.BimodalInstance(tasks, 0.6+0.3*rng.Float64(), rng)
		lb, err := bounds.Lower(in, pl)
		if err != nil {
			return nil, err
		}
		out := map[string]float64{}
		for _, alg := range DistributionAlgorithms() {
			var ms float64
			if alg == "MCT" {
				s, err := sched.MCTIndependent(in, pl)
				if err != nil {
					return nil, err
				}
				ms = s.Makespan()
			} else {
				s, err := RunIndependent(alg, in, pl)
				if err != nil {
					return nil, err
				}
				ms = s.Makespan()
			}
			out[alg] = ms / lb
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	ratios := map[string][]float64{}
	for _, sample := range perSample {
		for _, alg := range DistributionAlgorithms() {
			ratios[alg] = append(ratios[alg], sample[alg])
		}
	}
	var rows []DistributionRow
	for _, alg := range DistributionAlgorithms() {
		xs := ratios[alg]
		rows = append(rows, DistributionRow{
			Algorithm: alg,
			Samples:   len(xs),
			P50:       stats.Quantile(xs, 0.5),
			P90:       stats.Quantile(xs, 0.9),
			P99:       stats.Quantile(xs, 0.99),
			Max:       stats.Max(xs),
		})
	}
	return rows, nil
}

// DistributionTable renders the rows.
func DistributionTable(rows []DistributionRow) *stats.Table {
	t := &stats.Table{
		Title:   "Ratio distribution — random bimodal instances, ratio to the lower bound",
		Columns: []string{"algorithm", "samples", "p50", "p90", "p99", "max"},
	}
	for _, r := range rows {
		t.AddRow(r.Algorithm, r.Samples, r.P50, r.P90, r.P99, r.Max)
	}
	return t
}
