package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// noWrite marks an entry point that must leave a graph's priorities as
// built.
const noWrite dag.Weighting = -1

// TestEntryPointsLeaveInputsUntouched holds every scheduling and bound
// entry point of internal/core, internal/sched and internal/bounds, and
// every name of RunIndependent's and RunDAG's catalogs, to a read-only
// contract on its inputs. Fig6Pool computes the area bound on one
// instance and then runs three schedulers on it, and the tournament
// validates eight schedules against one instance, so an entry point that
// reorders or writes its input corrupts every result computed after it.
//
// Each call gets a fresh copy of its input, and the input must come back
// exactly as built, after an erroring call too. The one sanctioned write
// is the bottom-level priorities the *WithPriorities paths and RunDAG's
// ranked names document: there the expected graph is a second build on
// which the test itself calls AssignBottomLevelPriorities with that
// weighting. The inputs are built so that an in-place edit shows: shuffled
// IDs, distinct and tied non-zero priorities, tie-heavy integer times,
// instances small enough for OptimalIndependent, one instance that sends
// HLP to lp.Solve, and graphs whose priorities are set before the call.
func TestEntryPointsLeaveInputsUntouched(t *testing.T) {
	noisy := func(tk platform.Task, k platform.Kind) float64 { return 1.25 * tk.Time(k) }
	platforms := []platform.Platform{
		platform.NewPlatform(20, 4),
		platform.NewPlatform(2, 1),
		platform.NewPlatform(3, 0),
		platform.NewPlatform(0, 2),
		{}, // no workers: every call errors
	}
	instances := untouchedInstances(t)

	indep := []indepEntry{
		{"core.ScheduleIndependent", func(in platform.Instance, pl platform.Platform) error {
			_, err := core.ScheduleIndependent(in, pl, core.Options{})
			return err
		}},
		{"core.ScheduleIndependent{UsePriorities}", func(in platform.Instance, pl platform.Platform) error {
			_, err := core.ScheduleIndependent(in, pl, core.Options{UsePriorities: true})
			return err
		}},
		{"core.ScheduleIndependent{DisableSpoliation,ActualTime}", func(in platform.Instance, pl platform.Platform) error {
			_, err := core.ScheduleIndependent(in, pl, core.Options{DisableSpoliation: true, ActualTime: noisy})
			return err
		}},
		{"sched.AffinityIndependent", schedule(sched.AffinityIndependent)},
		{"sched.CLB2CIndependent", schedule(sched.CLB2CIndependent)},
		{"sched.DualHPIndependent", schedule(sched.DualHPIndependent)},
		{"sched.ERLSIndependent", schedule(sched.ERLSIndependent)},
		{"sched.HEFTIndependent{avg}", func(in platform.Instance, pl platform.Platform) error {
			_, err := sched.HEFTIndependent(in, pl, dag.WeightAvg)
			return err
		}},
		{"sched.HEFTIndependent{min}", func(in platform.Instance, pl platform.Platform) error {
			_, err := sched.HEFTIndependent(in, pl, dag.WeightMin)
			return err
		}},
		{"sched.HLPIndependent", schedule(sched.HLPIndependent)},
		{"sched.LPTPerClass", schedule(sched.LPTPerClass)},
		{"sched.MCTIndependent", schedule(sched.MCTIndependent)},
		{"sched.OptimalIndependent", bound(sched.OptimalIndependent)},
		{"sched.PriorityAwareIndependent", schedule(sched.PriorityAwareIndependent)},
		{"bounds.Area", func(in platform.Instance, pl platform.Platform) error {
			_, err := bounds.Area(in, pl)
			return err
		}},
		{"bounds.AreaBound", bound(bounds.AreaBound)},
		{"bounds.AreaBoundLP", bound(bounds.AreaBoundLP)},
		{"bounds.Lower", bound(bounds.Lower)},
		{"bounds.MaxMinBound", func(in platform.Instance, _ platform.Platform) error {
			bounds.MaxMinBound(in)
			return nil
		}},
	}
	for _, name := range AllIndepAlgorithms() {
		indep = append(indep, indepEntry{"RunIndependent/" + name, func(in platform.Instance, pl platform.Platform) error {
			_, err := RunIndependent(name, in, pl)
			return err
		}})
	}
	for _, e := range indep {
		t.Run(e.name, func(t *testing.T) {
			for _, inst := range instances {
				for _, pl := range platforms {
					in := inst.in.Clone()
					err := e.run(in, pl)
					if i := diffTasks(in, inst.in); i >= 0 {
						t.Errorf("%s on %v (err %v): task %d is %s, was %s", inst.name, pl, err, i, taskAt(in, i), taskAt(inst.in, i))
					}
				}
			}
		})
	}

	// The entry points whose inputs are not an Instance, over the same
	// tasks.
	t.Run("core.ScheduleOnline", func(t *testing.T) {
		for _, inst := range instances {
			base := make([]core.ReleasedTask, len(inst.in))
			for i, tk := range inst.in {
				base[i] = core.ReleasedTask{Task: tk, Release: float64((i * 7) % 5)}
			}
			for _, pl := range platforms {
				tasks := slices.Clone(base)
				_, err := core.ScheduleOnline(tasks, pl, core.Options{UsePriorities: true})
				if !slices.Equal(tasks, base) {
					t.Errorf("%s on %v (err %v): the arrivals changed", inst.name, pl, err)
				}
			}
		}
	})
	t.Run("core.PickVictim", func(t *testing.T) {
		for _, inst := range instances {
			base := make([]sim.Running, len(inst.in))
			for i, tk := range inst.in {
				base[i] = sim.Running{Worker: i, Task: tk, End: tk.CPUTime, EstEnd: tk.CPUTime + float64(i%3)}
			}
			for _, kind := range []platform.Kind{platform.CPU, platform.GPU} {
				victims := slices.Clone(base)
				core.PickVictim(victims, 0.5, kind, core.DefaultEps)
				if !slices.Equal(victims, base) {
					t.Errorf("%s, %v: the victims changed", inst.name, kind)
				}
			}
		}
	})
	t.Run("sched.ListHomogeneous", func(t *testing.T) {
		for _, inst := range instances {
			base := make([]float64, len(inst.in))
			for i, tk := range inst.in {
				base[i] = tk.CPUTime
			}
			for _, n := range []int{1, 3, 20} {
				durations := slices.Clone(base)
				sched.ListHomogeneous(durations, n)
				if !slices.Equal(durations, base) {
					t.Errorf("%s on %d machines: the durations changed", inst.name, n)
				}
			}
		}
	})

	graphs := untouchedGraphs()
	dags := []dagEntry{
		{"core.ScheduleDAG", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := core.ScheduleDAG(g, pl, core.Options{})
			return err
		}},
		{"core.ScheduleDAG{UsePriorities,TransferDelay}", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true, TransferDelay: 1})
			return err
		}},
		{"core.ScheduleDAG{DisableSpoliation,ActualTime}", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := core.ScheduleDAG(g, pl, core.Options{DisableSpoliation: true, ActualTime: noisy})
			return err
		}},
		{"sched.AffinityDAG", noWrite, scheduleDAG(sched.AffinityDAG)},
		{"sched.CLB2CDAG", noWrite, scheduleDAG(sched.CLB2CDAG)},
		{"sched.ERLSDAG", noWrite, scheduleDAG(sched.ERLSDAG)},
		{"sched.HLPDAG", noWrite, scheduleDAG(sched.HLPDAG)},
		{"sched.MCTDAG", noWrite, scheduleDAG(sched.MCTDAG)},
		{"sched.PriorityAwareDAG", noWrite, scheduleDAG(sched.PriorityAwareDAG)},
		{"sched.MCTDAGTimed", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := sched.MCTDAGTimed(g, pl, noisy)
			return err
		}},
		{"sched.DualHPDAG{fifo}", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := sched.DualHPDAG(g, pl, sched.RankFIFO)
			return err
		}},
		{"sched.DualHPDAG{avg}", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := sched.DualHPDAG(g, pl, sched.RankAvg)
			return err
		}},
		{"sched.DualHPDAG{min}", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := sched.DualHPDAG(g, pl, sched.RankMin)
			return err
		}},
		{"sched.DualHPDAGTimed{min}", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := sched.DualHPDAGTimed(g, pl, sched.RankMin, noisy)
			return err
		}},
		{"sched.HEFTTimed{min}", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := sched.HEFTTimed(g, pl, dag.WeightMin, noisy)
			return err
		}},
		{"sched.DualHPDAGWithPriorities{fifo}", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := sched.DualHPDAGWithPriorities(g, pl, sched.RankFIFO)
			return err
		}},
		{"sched.DualHPDAGWithPriorities{avg}", dag.WeightAvg, func(g *dag.Graph, pl platform.Platform) error {
			_, err := sched.DualHPDAGWithPriorities(g, pl, sched.RankAvg)
			return err
		}},
		{"sched.DualHPDAGWithPriorities{min}", dag.WeightMin, func(g *dag.Graph, pl platform.Platform) error {
			_, err := sched.DualHPDAGWithPriorities(g, pl, sched.RankMin)
			return err
		}},
		{"bounds.DAGLower", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := bounds.DAGLower(g, pl)
			return err
		}},
		{"bounds.DAGLowerRefined", noWrite, func(g *dag.Graph, pl platform.Platform) error {
			_, err := bounds.DAGLowerRefined(g, pl)
			return err
		}},
	}
	for _, w := range []dag.Weighting{dag.WeightAvg, dag.WeightMin} {
		dags = append(dags,
			dagEntry{"sched.HEFT{" + w.String() + "}", noWrite, func(g *dag.Graph, pl platform.Platform) error {
				_, err := sched.HEFT(g, pl, w)
				return err
			}},
			dagEntry{"sched.ERLSDAGWithPriorities{" + w.String() + "}", w, func(g *dag.Graph, pl platform.Platform) error {
				_, err := sched.ERLSDAGWithPriorities(g, pl, w)
				return err
			}},
			dagEntry{"sched.HLPDAGWithPriorities{" + w.String() + "}", w, func(g *dag.Graph, pl platform.Platform) error {
				_, err := sched.HLPDAGWithPriorities(g, pl, w)
				return err
			}},
			dagEntry{"sched.PriorityAwareDAGWithPriorities{" + w.String() + "}", w, func(g *dag.Graph, pl platform.Platform) error {
				_, err := sched.PriorityAwareDAGWithPriorities(g, pl, w)
				return err
			}},
		)
	}
	// RunDAG's ranked names store bottom levels first; every other name
	// must leave the graph as built. A new name fails here until it is
	// classified.
	runDAGWrites := map[string]dag.Weighting{
		"HeteroPrio-min": dag.WeightMin, "HeteroPrio-avg": dag.WeightAvg,
		"DualHP-min": dag.WeightMin, "DualHP-avg": dag.WeightAvg, "DualHP-fifo": noWrite,
		"HEFT-min": noWrite, "HEFT-avg": noWrite,
		"ERLS-min": dag.WeightMin, "ERLS-avg": dag.WeightAvg,
		"HLP-min":           dag.WeightMin,
		"CLB2C":             noWrite,
		"PriorityAware-min": dag.WeightMin,
		"Affinity":          noWrite,
	}
	for _, name := range AllDAGAlgorithms() {
		w, ok := runDAGWrites[name]
		if !ok {
			t.Fatalf("RunDAG name %q: say which priorities it writes", name)
		}
		dags = append(dags, dagEntry{"RunDAG/" + name, w, func(g *dag.Graph, pl platform.Platform) error {
			_, err := RunDAG(name, g, pl)
			return err
		}})
	}
	for _, e := range dags {
		t.Run(e.name, func(t *testing.T) {
			for _, gr := range graphs {
				for _, pl := range platforms {
					g := gr.build()
					err := e.run(g, pl)
					want := gr.build()
					if e.writes != noWrite {
						_, _ = want.AssignBottomLevelPriorities(e.writes, pl)
					}
					if d := diffGraph(g, want); d != "" {
						t.Errorf("%s on %v (err %v): %s", gr.name, pl, err, d)
					}
				}
			}
		})
	}

	// ReplayAssignment also takes the assignment and the ranks.
	t.Run("sched.ReplayAssignment", func(t *testing.T) {
		for _, gr := range graphs {
			for _, pl := range platforms {
				g := gr.build()
				baseAssign := make([]int, g.Len())
				baseRank := make([]float64, g.Len())
				for id := range baseAssign {
					baseAssign[id] = id % max(pl.Workers(), 1)
					baseRank[id] = float64((id * 3) % 7)
				}
				assign, rank := slices.Clone(baseAssign), slices.Clone(baseRank)
				_, err := sched.ReplayAssignment(g, pl, assign, rank, noisy)
				if d := diffGraph(g, gr.build()); d != "" {
					t.Errorf("%s on %v (err %v): %s", gr.name, pl, err, d)
				}
				if !slices.Equal(assign, baseAssign) || !slices.Equal(rank, baseRank) {
					t.Errorf("%s on %v (err %v): the assignment or the ranks changed", gr.name, pl, err)
				}
			}
		}
	})
}

// indepEntry is one call of an entry point on an independent-task input.
type indepEntry struct {
	name string
	run  func(in platform.Instance, pl platform.Platform) error
}

// dagEntry is one call of an entry point on a graph.
type dagEntry struct {
	name   string
	writes dag.Weighting // the bottom levels it stores as priorities, or noWrite
	run    func(g *dag.Graph, pl platform.Platform) error
}

// namedInstance is one independent-task input, kept unchanged: every call
// gets its own Clone.
type namedInstance struct {
	name string
	in   platform.Instance
}

// untouchedInstances builds the independent-task inputs. Every instance
// carries non-zero priorities with both distinct values and ties, so a
// stable sort by priority moves tasks.
func untouchedInstances(t *testing.T) []namedInstance {
	rng := rand.New(rand.NewSource(29))
	uniform := workloads.UniformInstance(40, 1, 100, 0.2, 40, rng)
	// Tie-heavy integer times: eight distinct (p, q) pairs over 30 tasks.
	ties := make(platform.Instance, 30)
	for i := range ties {
		ties[i] = platform.Task{ID: i, Name: "tie", CPUTime: float64(1 + i%4), GPUTime: float64(1 + (i/4)%2)}
	}
	// Small enough for OptimalIndependent, which errors on the others.
	exactTies := make(platform.Instance, 12)
	for i := range exactTies {
		exactTies[i] = platform.Task{ID: i, Name: "small", CPUTime: float64(2 + (i*5)%7), GPUTime: float64(1 + (i*3)%4)}
	}
	exact := workloads.UniformInstance(9, 1, 20, 0.5, 10, rng)
	for _, in := range []platform.Instance{uniform, ties, exactTies, exact} {
		for i, id := range rng.Perm(len(in)) {
			in[i].ID = id
		}
	}
	// BenchmarkHLPIndependentFallback's instance: one task whose min(p, q)
	// is twice the area bound of the others widens the LP's optimal face,
	// so HLP hands the allocation to lp.Solve.
	fallback := workloads.LogNormalAccelInstance(120, math.Ln2, 1, rand.New(rand.NewSource(1)))
	area, err := bounds.AreaBound(fallback, PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	fallback = append(fallback, platform.Task{ID: len(fallback), Name: "dominant", CPUTime: 2 * area, GPUTime: 2 * area})

	out := []namedInstance{{"uniform", uniform}, {"ties", ties}, {"exact-ties", exactTies}, {"exact", exact}, {"hlp-fallback", fallback}}
	for _, ni := range out {
		for i := range ni.in {
			ni.in[i].Priority = float64(1 + (i*7)%(len(ni.in)/2+1))
		}
	}
	return out
}

// namedGraph builds one DAG input afresh on every call, priorities set.
type namedGraph struct {
	name  string
	build func() *dag.Graph
}

func untouchedGraphs() []namedGraph {
	prioritized := func(build func() *dag.Graph) func() *dag.Graph {
		return func() *dag.Graph {
			g := build()
			for id := 0; id < g.Len(); id++ {
				g.SetPriority(id, float64(1+(id*5)%7))
			}
			return g
		}
	}
	return []namedGraph{
		{"cholesky-4", prioritized(func() *dag.Graph { return workloads.Cholesky(4) })},
		{"qr-4", prioritized(func() *dag.Graph { return workloads.QR(4) })},
		{"lu-4", prioritized(func() *dag.Graph { return workloads.LU(4) })},
		{"layered", prioritized(func() *dag.Graph {
			return dag.RandomLayered(dag.DefaultRandomLayeredConfig(), rand.New(rand.NewSource(29)))
		})},
	}
}

func schedule(f func(platform.Instance, platform.Platform) (*sim.Schedule, error)) func(platform.Instance, platform.Platform) error {
	return func(in platform.Instance, pl platform.Platform) error {
		_, err := f(in, pl)
		return err
	}
}

func bound(f func(platform.Instance, platform.Platform) (float64, error)) func(platform.Instance, platform.Platform) error {
	return func(in platform.Instance, pl platform.Platform) error {
		_, err := f(in, pl)
		return err
	}
}

func scheduleDAG(f func(*dag.Graph, platform.Platform) (*sim.Schedule, error)) func(*dag.Graph, platform.Platform) error {
	return func(g *dag.Graph, pl platform.Platform) error {
		_, err := f(g, pl)
		return err
	}
}

// diffTasks returns the index of the first task of got that differs from
// want, or -1 when they are the same.
func diffTasks(got, want platform.Instance) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// taskAt renders in[i], or "missing" past the end.
func taskAt(in platform.Instance, i int) string {
	if i >= len(in) {
		return "missing"
	}
	return fmt.Sprintf("%+v", in[i])
}

// diffGraph describes the first difference between got and want in their
// tasks, successor rows and predecessor rows, or returns "".
func diffGraph(got, want *dag.Graph) string {
	if got.Len() != want.Len() || got.Edges() != want.Edges() {
		return fmt.Sprintf("%d tasks and %d edges, want %d and %d", got.Len(), got.Edges(), want.Len(), want.Edges())
	}
	if i := diffTasks(got.Tasks(), want.Tasks()); i >= 0 {
		return fmt.Sprintf("task %d is %s, want %s", i, taskAt(got.Tasks(), i), taskAt(want.Tasks(), i))
	}
	for id := 0; id < got.Len(); id++ {
		if !slices.Equal(got.Succs(id), want.Succs(id)) {
			return fmt.Sprintf("Succs(%d) is %v, want %v", id, got.Succs(id), want.Succs(id))
		}
		if !slices.Equal(got.Preds(id), want.Preds(id)) {
			return fmt.Sprintf("Preds(%d) is %v, want %v", id, got.Preds(id), want.Preds(id))
		}
	}
	return ""
}
