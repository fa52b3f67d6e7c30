package expr

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// RobustnessRow is one point of the estimation-noise study: one kernel
// family, one noise level, and the mean ratio (over seeds) of each
// algorithm's makespan to the lower bound computed on the *actual*
// durations. The schedulers only ever see the nominal (noise-free)
// processing times; every run takes its jittered actual duration.
type RobustnessRow struct {
	Kernel workloads.Factorization
	N      int
	Sigma  float64
	Seeds  int
	Ratio  map[string]float64
}

// RobustnessAlgorithms lists the schedulers of the noise study.
func RobustnessAlgorithms() []string {
	return []string{"HeteroPrio-min", "DualHP-min", "HEFT-min", "MCT"}
}

// RobustnessPool runs the estimation-noise study motivated by the
// paper's introduction ("NUMA effects ... render the precise estimation
// of the duration of tasks extremely difficult"): per-run durations are
// the nominal times multiplied by log-normal noise exp(sigma*N(0,1)),
// unknown to the schedulers. It fans out on p: one cell per (sigma, seed)
// pair. The jitter RNG is derived per cell (from the seed index), so
// parallel cells draw exactly the sequential run's noise; the per-sigma
// means are then reduced in seed order, keeping the float addition order
// — and hence the output bytes — of the sequential loop.
func RobustnessPool(ctx context.Context, p *engine.Pool, fact workloads.Factorization, N int, sigmas []float64, seeds int, pl platform.Platform) ([]RobustnessRow, error) {
	type cell struct {
		sigma float64
		seed  int
	}
	var cells []cell
	for _, sigma := range sigmas {
		for seed := 0; seed < seeds; seed++ {
			cells = append(cells, cell{sigma, seed})
		}
	}
	ratios, err := engine.Map(ctx, p, engine.Job{Cells: len(cells)}, func(_ context.Context, c engine.Cell) (map[string]float64, error) {
		sigma, seed := cells[c.Index].sigma, cells[c.Index].seed
		g, err := workloads.Build(fact, N)
		if err != nil {
			return nil, err
		}
		if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
			return nil, err
		}
		actual, actualFn := jitteredDurations(g, sigma, rand.New(rand.NewSource(int64(seed)+7)))
		lb, err := actualLowerBound(g, pl, actual)
		if err != nil {
			return nil, err
		}
		out := map[string]float64{}
		for _, alg := range RobustnessAlgorithms() {
			s, err := runRobust(alg, g, pl, actualFn)
			if err != nil {
				return nil, err
			}
			if err := s.ValidateTimed(g.Tasks(), g, actualFn); err != nil {
				return nil, err
			}
			out[alg] = s.Makespan() / lb
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []RobustnessRow
	for si, sigma := range sigmas {
		row := RobustnessRow{Kernel: fact, N: N, Sigma: sigma, Seeds: seeds, Ratio: map[string]float64{}}
		sums := map[string]float64{}
		for seed := 0; seed < seeds; seed++ {
			for _, alg := range RobustnessAlgorithms() {
				sums[alg] += ratios[si*seeds+seed][alg]
			}
		}
		for alg, sum := range sums {
			row.Ratio[alg] = sum / float64(seeds)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// jitteredDurations draws one actual duration per (task, class) pair and
// returns both the table and the lookup function.
func jitteredDurations(g *dag.Graph, sigma float64, rng *rand.Rand) ([][platform.NumKinds]float64, func(t platform.Task, k platform.Kind) float64) {
	actual := make([][platform.NumKinds]float64, g.Len())
	for id := 0; id < g.Len(); id++ {
		t := g.Task(id)
		actual[id][platform.CPU] = t.CPUTime * math.Exp(sigma*rng.NormFloat64())
		actual[id][platform.GPU] = t.GPUTime * math.Exp(sigma*rng.NormFloat64())
	}
	return actual, func(t platform.Task, k platform.Kind) float64 {
		return actual[t.ID][k]
	}
}

// actualLowerBound computes the DAG lower bound on the actual durations.
func actualLowerBound(g *dag.Graph, pl platform.Platform, actual [][platform.NumKinds]float64) (float64, error) {
	// Rebuild a graph with the actual durations as nominal times.
	h := dag.New()
	for id := 0; id < g.Len(); id++ {
		t := g.Task(id)
		t.CPUTime = actual[id][platform.CPU]
		t.GPUTime = actual[id][platform.GPU]
		h.AddTask(t)
	}
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Succs(u) {
			h.AddEdge(u, v)
		}
	}
	return bounds.DAGLower(h, pl)
}

// runRobust executes one algorithm under the duration model.
func runRobust(alg string, g *dag.Graph, pl platform.Platform, actual func(t platform.Task, k platform.Kind) float64) (*sim.Schedule, error) {
	switch alg {
	case "HeteroPrio-min":
		res, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true, ActualTime: actual})
		if err != nil {
			return nil, err
		}
		return res.Schedule, nil
	case "DualHP-min":
		return sched.DualHPDAGTimed(g, pl, sched.RankMin, actual)
	case "HEFT-min":
		return sched.HEFTTimed(g, pl, dag.WeightMin, actual)
	case "MCT":
		return sched.MCTDAGTimed(g, pl, actual)
	default:
		return nil, fmt.Errorf("expr: unknown robustness algorithm %q", alg)
	}
}

// RobustnessTable renders the rows.
func RobustnessTable(rows []RobustnessRow) *stats.Table {
	t := &stats.Table{
		Title:   "Robustness — mean ratio to the actual-duration lower bound under log-normal estimation noise",
		Columns: append([]string{"kernel", "N", "sigma", "seeds"}, RobustnessAlgorithms()...),
	}
	for _, r := range rows {
		vals := []interface{}{string(r.Kernel), r.N, r.Sigma, r.Seeds}
		for _, alg := range RobustnessAlgorithms() {
			vals = append(vals, r.Ratio[alg])
		}
		t.AddRow(vals...)
	}
	return t
}
