// Package expr implements the paper's evaluation harness: one experiment
// per table and figure of Section 6, each returning typed rows and
// rendering to Markdown/CSV. The experiments run entirely on the simulated
// platform (see DESIGN.md for the substitutions).
package expr

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// factCell is one (kernel family, tile count) cell of a sweep fan-out.
type factCell struct {
	fact workloads.Factorization
	n    int
}

// factorizationCells flattens the kernel × tile-count grid in the order
// the sequential loops used, so ordered reduction reproduces their rows.
func factorizationCells(Ns []int) []factCell {
	var cells []factCell
	for _, fact := range workloads.Factorizations() {
		for _, n := range Ns {
			cells = append(cells, factCell{fact, n})
		}
	}
	return cells
}

// PaperPlatform returns the evaluation platform of Section 6: 20 CPU cores
// and 4 GPUs.
func PaperPlatform() platform.Platform { return platform.NewPlatform(20, 4) }

// PaperNs returns the tile-count sweep of the paper (N from 4 to 64).
func PaperNs() []int { return []int{4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64} }

// SmallNs returns a reduced sweep for quick runs (tests, benchmarks).
func SmallNs() []int { return []int{4, 8, 12, 16} }

// IndepAlgorithms lists the independent-task schedulers of Figure 6.
func IndepAlgorithms() []string { return []string{"HeteroPrio", "DualHP", "HEFT"} }

// ZooIndepAlgorithms lists the related-work competitors (DESIGN.md §15).
// They are kept out of IndepAlgorithms so the paper figures keep their
// original algorithm set (and their sweep cost: HLP solves an LP per
// instance).
func ZooIndepAlgorithms() []string {
	return []string{"ERLS", "HLP", "CLB2C", "PriorityAware", "Affinity"}
}

// AllIndepAlgorithms lists every independent-task scheduler: the paper's
// plus the zoo. This is the set hpsched's -alg all and the tournament
// sweep use.
func AllIndepAlgorithms() []string {
	return append(IndepAlgorithms(), ZooIndepAlgorithms()...)
}

// RunIndependent executes the named independent-task scheduler.
func RunIndependent(name string, in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
	switch name {
	case "HeteroPrio":
		res, err := core.ScheduleIndependent(in, pl, core.Options{})
		if err != nil {
			return nil, err
		}
		return res.Schedule, nil
	case "DualHP":
		return sched.DualHPIndependent(in, pl)
	case "HEFT":
		return sched.HEFTIndependent(in, pl, dag.WeightAvg)
	case "ERLS":
		return sched.ERLSIndependent(in, pl)
	case "HLP":
		return sched.HLPIndependent(in, pl)
	case "CLB2C":
		return sched.CLB2CIndependent(in, pl)
	case "PriorityAware":
		return sched.PriorityAwareIndependent(in, pl)
	case "Affinity":
		return sched.AffinityIndependent(in, pl)
	default:
		return nil, fmt.Errorf("expr: unknown independent algorithm %q", name)
	}
}

// DAGAlgorithms lists the seven DAG schedulers of Figure 7, in the paper's
// grouping: HeteroPrio, DualHP and HEFT with their ranking schemes.
func DAGAlgorithms() []string {
	return []string{
		"HeteroPrio-min", "HeteroPrio-avg",
		"DualHP-min", "DualHP-avg", "DualHP-fifo",
		"HEFT-min", "HEFT-avg",
	}
}

// ZooDAGAlgorithms lists the DAG entry points of the zoo competitors.
func ZooDAGAlgorithms() []string {
	return []string{
		"ERLS-min", "ERLS-avg",
		"HLP-min",
		"CLB2C",
		"PriorityAware-min",
		"Affinity",
	}
}

// AllDAGAlgorithms lists every DAG scheduler: the paper's plus the zoo.
func AllDAGAlgorithms() []string {
	return append(DAGAlgorithms(), ZooDAGAlgorithms()...)
}

// RunDAG executes the named DAG scheduler on a copy of the graph's
// priority state (bottom levels are reassigned per the algorithm's
// scheme).
func RunDAG(name string, g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
	return RunDAGObserved(name, g, pl, nil)
}

// RunDAGObserved is RunDAG with a live Observer attached. Only the
// HeteroPrio event loop emits events; the comparison schedulers run
// unobserved and their metrics are derived post hoc from the returned
// schedule.
func RunDAGObserved(name string, g *dag.Graph, pl platform.Platform, o obs.Observer) (*sim.Schedule, error) {
	switch name {
	case "HeteroPrio-min":
		if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
			return nil, err
		}
		res, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true, Observer: o})
		if err != nil {
			return nil, err
		}
		return res.Schedule, nil
	case "HeteroPrio-avg":
		if _, err := g.AssignBottomLevelPriorities(dag.WeightAvg, pl); err != nil {
			return nil, err
		}
		res, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true, Observer: o})
		if err != nil {
			return nil, err
		}
		return res.Schedule, nil
	case "DualHP-min":
		return sched.DualHPDAGWithPriorities(g, pl, sched.RankMin)
	case "DualHP-avg":
		return sched.DualHPDAGWithPriorities(g, pl, sched.RankAvg)
	case "DualHP-fifo":
		return sched.DualHPDAGWithPriorities(g, pl, sched.RankFIFO)
	case "HEFT-min":
		return sched.HEFT(g, pl, dag.WeightMin)
	case "HEFT-avg":
		return sched.HEFT(g, pl, dag.WeightAvg)
	case "ERLS-min":
		return sched.ERLSDAGWithPriorities(g, pl, dag.WeightMin)
	case "ERLS-avg":
		return sched.ERLSDAGWithPriorities(g, pl, dag.WeightAvg)
	case "HLP-min":
		return sched.HLPDAGWithPriorities(g, pl, dag.WeightMin)
	case "CLB2C":
		return sched.CLB2CDAG(g, pl)
	case "PriorityAware-min":
		return sched.PriorityAwareDAGWithPriorities(g, pl, dag.WeightMin)
	case "Affinity":
		return sched.AffinityDAG(g, pl)
	default:
		return nil, fmt.Errorf("expr: unknown DAG algorithm %q", name)
	}
}
