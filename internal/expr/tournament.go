package expr

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/plot"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The tournament sweep (ROADMAP item 4, DESIGN.md §15) answers "who wins
// where": every independent-task scheduler — the paper's and the zoo's —
// runs on the same random instances across a grid of platform shapes
// (m CPUs × n GPUs) and acceleration-factor spreads (the sigma of the
// log-normal rho distribution), and each cell reports per-algorithm
// geometric-mean ratios to the lower bound plus win counts (an algorithm
// wins an instance when its makespan is within 1e-9 of the cell's best;
// ties award every co-winner). Cells are engine cells, so the CSV is
// byte-identical at any worker count — CI diffs 1 vs 8 workers.

// TournamentConfig parameterizes a tournament sweep.
type TournamentConfig struct {
	// Shapes is the platform grid (m CPUs × n GPUs per entry).
	Shapes []platform.Platform
	// Spreads lists the sigma values of the log-normal acceleration
	// factor distribution (mu is log 2, so the median rho is 2).
	Spreads []float64
	// Instances is the number of random instances per cell.
	Instances int
	// Tasks is the instance size.
	Tasks int
	// Seed is the base seed of the sweep.
	Seed int64
}

// DefaultTournament is the full grid: 6 shapes × 4 spreads × 10 instances
// of 120 tasks.
func DefaultTournament() TournamentConfig {
	return TournamentConfig{
		Shapes:    TournamentShapes(),
		Spreads:   TournamentSpreads(),
		Instances: 10,
		Tasks:     120,
		Seed:      20170529,
	}
}

// QuickTournament is the reduced grid used by -quick runs, CI determinism
// diffs and tests: 3 shapes × 3 spreads × 4 instances of 40 tasks.
func QuickTournament() TournamentConfig {
	return TournamentConfig{
		Shapes:    []platform.Platform{platform.NewPlatform(1, 1), platform.NewPlatform(4, 1), platform.NewPlatform(8, 2)},
		Spreads:   []float64{0.25, 1, 2},
		Instances: 4,
		Tasks:     40,
		Seed:      20170529,
	}
}

// TournamentShapes is the platform grid of the full tournament, from the
// paper's 20+4 node down to a symmetric 1+1.
func TournamentShapes() []platform.Platform {
	return []platform.Platform{
		platform.NewPlatform(1, 1),
		platform.NewPlatform(4, 1),
		platform.NewPlatform(8, 2),
		platform.NewPlatform(16, 4),
		platform.NewPlatform(20, 4),
		platform.NewPlatform(4, 4),
	}
}

// TournamentSpreads is the sigma grid of the full tournament: from nearly
// homogeneous acceleration factors to a heavy-tailed mix.
func TournamentSpreads() []float64 { return []float64{0.25, 0.5, 1, 2} }

// TournamentRow is one (shape, spread) cell of the sweep.
type TournamentRow struct {
	CPUs, GPUs int
	Spread     float64
	Tasks      int
	Instances  int
	// Ratio maps algorithm name to the geometric mean of makespan /
	// bounds.Lower over the cell's instances.
	Ratio map[string]float64
	// Wins maps algorithm name to the number of instances it won (ties
	// award every co-winner).
	Wins map[string]int
	// Best is the algorithm with the most wins, earliest catalog position
	// breaking ties.
	Best string
}

// TournamentPool runs the sweep on p: one engine cell per (shape,
// spread) pair, with per-cell derived RNG seeds, so rows are
// byte-identical to a sequential run at any pool width.
func TournamentPool(ctx context.Context, p *engine.Pool, cfg TournamentConfig) ([]TournamentRow, error) {
	type cell struct {
		pl     platform.Platform
		spread float64
	}
	var cells []cell
	for _, pl := range cfg.Shapes {
		for _, sp := range cfg.Spreads {
			cells = append(cells, cell{pl, sp})
		}
	}
	algs := AllIndepAlgorithms()
	mu := math.Log(2)
	return engine.Map(ctx, p, engine.Job{Cells: len(cells), Seed: cfg.Seed}, func(_ context.Context, c engine.Cell) (TournamentRow, error) {
		pl, spread := cells[c.Index].pl, cells[c.Index].spread
		row := TournamentRow{
			CPUs: pl.CPUs, GPUs: pl.GPUs, Spread: spread,
			Tasks: cfg.Tasks, Instances: cfg.Instances,
			Ratio: map[string]float64{},
			Wins:  map[string]int{},
		}
		rng := c.Rand()
		logSum := make([]float64, len(algs))
		wins := make([]int, len(algs))
		for trial := 0; trial < cfg.Instances; trial++ {
			in := workloads.LogNormalAccelInstance(cfg.Tasks, mu, spread, rng)
			lower, err := bounds.Lower(in, pl)
			if err != nil {
				return TournamentRow{}, err
			}
			ms := make([]float64, len(algs))
			best := math.Inf(1)
			for i, alg := range algs {
				s, err := RunIndependent(alg, in, pl)
				if err != nil {
					return TournamentRow{}, fmt.Errorf("tournament %s on %s: %w", alg, pl, err)
				}
				if err := s.Validate(in, nil); err != nil {
					return TournamentRow{}, fmt.Errorf("tournament %s on %s: %w", alg, pl, err)
				}
				ms[i] = s.Makespan()
				best = math.Min(best, ms[i])
			}
			for i := range algs {
				logSum[i] += math.Log(ms[i] / lower)
				if ms[i] <= best*(1+1e-9) {
					wins[i]++
				}
			}
		}
		bestAlg, bestWins := "", -1
		for i, alg := range algs {
			row.Ratio[alg] = math.Exp(logSum[i] / float64(cfg.Instances))
			row.Wins[alg] = wins[i]
			if wins[i] > bestWins {
				bestAlg, bestWins = alg, wins[i]
			}
		}
		row.Best = bestAlg
		return row, nil
	})
}

// TournamentTable renders the per-cell geometric-mean ratios, one column
// per algorithm.
func TournamentTable(rows []TournamentRow) *stats.Table {
	t := &stats.Table{
		Title:   "Tournament — geomean makespan / lower bound per (platform, rho spread) cell",
		Columns: append([]string{"cpus", "gpus", "sigma", "tasks", "instances"}, AllIndepAlgorithms()...),
	}
	for _, r := range rows {
		vals := []interface{}{r.CPUs, r.GPUs, r.Spread, r.Tasks, r.Instances}
		for _, alg := range AllIndepAlgorithms() {
			vals = append(vals, r.Ratio[alg])
		}
		t.AddRow(vals...)
	}
	return t
}

// TournamentWinsTable renders the win counts and each cell's overall
// winner.
func TournamentWinsTable(rows []TournamentRow) *stats.Table {
	t := &stats.Table{
		Title:   "Tournament — wins per cell (ties award every co-winner)",
		Columns: append(append([]string{"cpus", "gpus", "sigma"}, AllIndepAlgorithms()...), "best"),
	}
	for _, r := range rows {
		vals := []interface{}{r.CPUs, r.GPUs, r.Spread}
		for _, alg := range AllIndepAlgorithms() {
			vals = append(vals, r.Wins[alg])
		}
		vals = append(vals, r.Best)
		t.AddRow(vals...)
	}
	return t
}

// TournamentCharts returns one ratio-vs-spread chart per platform shape.
func TournamentCharts(rows []TournamentRow) map[string]*plot.Chart {
	charts := map[string]*plot.Chart{}
	for _, r := range rows {
		name := fmt.Sprintf("tournament_%dc%dg", r.CPUs, r.GPUs)
		c, ok := charts[name]
		if !ok {
			c = &plot.Chart{
				Title:  fmt.Sprintf("Tournament — %d CPUs + %d GPUs", r.CPUs, r.GPUs),
				XLabel: "rho spread (log-normal sigma)",
				YLabel: "geomean makespan / lower bound",
			}
			for _, alg := range AllIndepAlgorithms() {
				c.Series = append(c.Series, plot.Series{Name: alg})
			}
			charts[name] = c
		}
		for i, alg := range AllIndepAlgorithms() {
			c.Series[i].X = append(c.Series[i].X, r.Spread)
			c.Series[i].Y = append(c.Series[i].Y, r.Ratio[alg])
		}
	}
	return charts
}
