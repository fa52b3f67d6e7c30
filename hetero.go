// Package hetero is the public API of the HeteroPrio reproduction: a
// library for scheduling independent tasks and task graphs on
// heterogeneous nodes made of two unrelated resource classes (CPUs and
// GPUs), built around the HeteroPrio affinity-based list scheduling
// algorithm with spoliation of
//
//	Beaumont, Eyraud-Dubois, Kumar — "Approximation Proofs of a Fast and
//	Efficient List Scheduling Algorithm for Task-Based Runtime Systems on
//	Multicores and GPUs", IPDPS 2017.
//
// The package re-exports the core types and algorithms of the internal
// packages as a single import surface:
//
//	pl := hetero.NewPlatform(20, 4)          // 20 CPUs + 4 GPUs
//	in := hetero.Instance{
//	    {ID: 0, Name: "dgemm", CPUTime: 50, GPUTime: 1.7},
//	    {ID: 1, Name: "dpotrf", CPUTime: 12, GPUTime: 7},
//	}
//	res, err := hetero.ScheduleIndependent(in, pl, hetero.Options{})
//	fmt.Println(res.Makespan())
//
// Baseline schedulers (HEFT, DualHP), lower bounds (area bound, DAG
// bound), workload generators (tiled Cholesky/QR/LU) and the paper's
// adversarial worst-case instances are also exposed.
package hetero

import (
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Core model types.
type (
	// Task is a unit of work with one processing time per resource class.
	Task = platform.Task
	// Instance is an ordered set of independent tasks.
	Instance = platform.Instance
	// Platform is a node with m CPU workers and n GPU workers.
	Platform = platform.Platform
	// Kind is a resource class (CPU or GPU).
	Kind = platform.Kind
	// Schedule is a full execution trace, including aborted (spoliated)
	// runs, with validation and the paper's metrics.
	Schedule = sim.Schedule
	// Entry is one execution attempt within a Schedule.
	Entry = sim.Entry
	// Graph is a task DAG.
	Graph = dag.Graph
	// Weighting selects how node weights derive from the two processing
	// times (avg, min, cpu, gpu) in priority computations.
	Weighting = dag.Weighting
	// Options configures a HeteroPrio run.
	Options = core.Options
	// Result is the outcome of a HeteroPrio run (final schedule, first
	// idle time, spoliation count). The no-spoliation schedule S_HP^NS is
	// the Schedule of a run with Options.DisableSpoliation set.
	Result = core.Result
	// Ranking selects DualHP's intra-class ordering (fifo, avg, min).
	Ranking = sched.Ranking
	// AreaSolution is the witnessing fractional assignment of the area
	// bound.
	AreaSolution = bounds.AreaSolution
)

// Resource classes.
const (
	CPU = platform.CPU
	GPU = platform.GPU
)

// Priority weighting schemes.
const (
	WeightAvg = dag.WeightAvg
	WeightMin = dag.WeightMin
	WeightCPU = dag.WeightCPU
	WeightGPU = dag.WeightGPU
)

// DualHP rankings.
const (
	RankFIFO = sched.RankFIFO
	RankAvg  = sched.RankAvg
	RankMin  = sched.RankMin
)

// NewPlatform returns a platform with m CPU workers and n GPU workers.
func NewPlatform(m, n int) Platform { return platform.NewPlatform(m, n) }

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return dag.New() }

// ScheduleIndependent runs HeteroPrio (Algorithm 1 of the paper, with
// spoliation) on a set of independent tasks.
func ScheduleIndependent(in Instance, pl Platform, opt Options) (Result, error) {
	return core.ScheduleIndependent(in, pl, opt)
}

// ScheduleDAG runs the DAG variant of HeteroPrio: the independent-task
// rule applied to the set of currently ready tasks, with spoliation.
func ScheduleDAG(g *Graph, pl Platform, opt Options) (Result, error) {
	return core.ScheduleDAG(g, pl, opt)
}

// HEFT schedules a task graph with the Heterogeneous Earliest Finish Time
// baseline (insertion-based, zero communication costs).
func HEFT(g *Graph, pl Platform, w Weighting) (*Schedule, error) {
	return sched.HEFT(g, pl, w)
}

// HEFTIndependent schedules an independent instance with HEFT.
func HEFTIndependent(in Instance, pl Platform, w Weighting) (*Schedule, error) {
	return sched.HEFTIndependent(in, pl, w)
}

// DualHPIndependent schedules an independent instance with the DualHP
// dual-approximation baseline (2-approximation).
func DualHPIndependent(in Instance, pl Platform) (*Schedule, error) {
	return sched.DualHPIndependent(in, pl)
}

// DualHPDAG schedules a task graph with the DAG adaptation of DualHP,
// assigning bottom-level priorities per the ranking scheme.
func DualHPDAG(g *Graph, pl Platform, rank Ranking) (*Schedule, error) {
	return sched.DualHPDAGWithPriorities(g, pl, rank)
}

// OptimalIndependent computes the exact optimal makespan of a small
// independent instance (branch and bound; see sched.MaxExactTasks).
func OptimalIndependent(in Instance, pl Platform) (float64, error) {
	return sched.OptimalIndependent(in, pl)
}

// AreaBound returns the divisible-load lower bound of Section 4.2.
func AreaBound(in Instance, pl Platform) (float64, error) {
	return bounds.AreaBound(in, pl)
}

// Area returns the area bound together with its fractional assignment.
func Area(in Instance, pl Platform) (AreaSolution, error) {
	return bounds.Area(in, pl)
}

// LowerBound returns max(area bound, max_i min(p_i, q_i)).
func LowerBound(in Instance, pl Platform) (float64, error) {
	return bounds.Lower(in, pl)
}

// DAGLowerBound returns the dependency-aware lower bound (area bound
// strengthened with the min-duration critical path).
func DAGLowerBound(g *Graph, pl Platform) (float64, error) {
	return bounds.DAGLower(g, pl)
}

// DAGLowerBoundRefined additionally sweeps dependency-restricted area
// arguments over the top and bottom levels (see bounds.DAGLowerRefined);
// always at least DAGLowerBound.
func DAGLowerBoundRefined(g *Graph, pl Platform) (float64, error) {
	return bounds.DAGLowerRefined(g, pl)
}

// Cholesky, QR and LU build the tiled factorization task graphs of the
// paper's evaluation, with the Table 1 timing model.
func Cholesky(N int) *Graph { return workloads.Cholesky(N) }

// QR builds the tiled QR factorization task graph.
func QR(N int) *Graph { return workloads.QR(N) }

// LU builds the tiled LU factorization task graph.
func LU(N int) *Graph { return workloads.LU(N) }
