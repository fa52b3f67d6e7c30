package hetero

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (on reduced sweeps so `go test -bench=.` stays fast; the
// cmd/experiments binary runs the full paper sweep) plus the ablation and
// scheduling-overhead studies called out in DESIGN.md.

// BenchmarkTable1AccelerationFactors regenerates Table 1.
func BenchmarkTable1AccelerationFactors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := expr.Table1Table()
		if len(tb.Rows) != 4 {
			b.Fatal("table 1 wrong")
		}
	}
}

// BenchmarkTable2WorstCases regenerates Table 2: HeteroPrio on the
// adversarial instances of Theorems 8, 11 and 14.
func BenchmarkTable2WorstCases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expr.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("table 2 wrong")
		}
	}
}

// BenchmarkFig6Independent regenerates Figure 6 (independent tasks, ratio
// to the area bound) on a reduced N sweep.
func BenchmarkFig6Independent(b *testing.B) {
	pl := expr.PaperPlatform()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Fig6Pool(context.Background(), engine.Default(), expr.SmallNs(), pl); err != nil {
			b.Fatal(err)
		}
	}
}

// fig7Rows caches one reduced Figure 7/8/9 run for the three view benches.
func fig7Rows(b *testing.B) []expr.Fig7Row {
	b.Helper()
	rows, err := expr.Fig7Pool(context.Background(), engine.Default(), expr.SmallNs(), expr.PaperPlatform())
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkFig7DAGs regenerates Figure 7 (DAGs, ratio to the lower bound).
func BenchmarkFig7DAGs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig7Rows(b)
		if len(expr.Fig7Table(rows).Rows) == 0 {
			b.Fatal("fig 7 empty")
		}
	}
}

// BenchmarkFig8EquivalentAccel regenerates Figure 8 from the Figure 7 run.
func BenchmarkFig8EquivalentAccel(b *testing.B) {
	rows := fig7Rows(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(expr.Fig8Table(rows).Rows) == 0 {
			b.Fatal("fig 8 empty")
		}
	}
}

// BenchmarkFig9IdleTime regenerates Figure 9 from the Figure 7 run.
func BenchmarkFig9IdleTime(b *testing.B) {
	rows := fig7Rows(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(expr.Fig9Table(rows).Rows) == 0 {
			b.Fatal("fig 9 empty")
		}
	}
}

// BenchmarkAblationSpoliation runs the spoliation/priority ablation.
func BenchmarkAblationSpoliation(b *testing.B) {
	pl := expr.PaperPlatform()
	for i := 0; i < b.N; i++ {
		if _, err := expr.AblationPool(context.Background(), engine.Default(), []int{4, 8}, pl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundStress checks Theorem 12's bound on a stream of random
// instances against the combined lower bound (sanity stress, not a proof).
func BenchmarkBoundStress(b *testing.B) {
	pl := platform.NewPlatform(8, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		in := workloads.LogNormalAccelInstance(60, 1, 1.2, rng)
		res, err := core.ScheduleIndependent(in, pl, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		lb, err := bounds.Lower(in, pl)
		if err != nil {
			b.Fatal(err)
		}
		// The ratio to the *lower bound* can exceed the ratio to the
		// optimum, but a blow-up beyond 2+sqrt(2) against the bound on
		// these dense instances would indicate a regression.
		if res.Makespan() > 3.42*lb {
			b.Fatalf("iteration %d: ratio %v", i, res.Makespan()/lb)
		}
	}
}

// Scheduler overhead benches: the cost of computing a full schedule per
// task, supporting the paper's low-complexity claim for HeteroPrio
// (Sections 1 and 6). Metric: ns per scheduled task.

func overheadGraph(b *testing.B) *dag.Graph {
	b.Helper()
	return workloads.Cholesky(16) // 816 tasks
}

func BenchmarkSchedulerOverheadHeteroPrio(b *testing.B) {
	g := overheadGraph(b)
	pl := expr.PaperPlatform()
	if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.Len()), "ns/task")
}

func BenchmarkSchedulerOverheadHEFT(b *testing.B) {
	g := overheadGraph(b)
	pl := expr.PaperPlatform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.HEFT(g, pl, dag.WeightAvg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.Len()), "ns/task")
}

func BenchmarkSchedulerOverheadDualHP(b *testing.B) {
	g := overheadGraph(b)
	pl := expr.PaperPlatform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.DualHPDAGWithPriorities(g, pl, sched.RankMin); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.Len()), "ns/task")
}

// Micro-benchmarks of the substrate hot paths.

func BenchmarkAreaBound(b *testing.B) {
	in, err := workloads.IndependentTasks(workloads.FactCholesky, 16)
	if err != nil {
		b.Fatal(err)
	}
	pl := expr.PaperPlatform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bounds.AreaBound(in, pl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHLPIndependent measures one tournament cell's HLP call: 120
// log-normal tasks (mu ln 2, sigma 1, as the tournament draws them) on
// 20+4. The allocation LP's optimum is a single point here, so the ρ-ordered
// walk answers it without the simplex: this is the benchgate's probe for
// the walk and the LPT list phase.
func BenchmarkHLPIndependent(b *testing.B) {
	in := workloads.LogNormalAccelInstance(120, math.Ln2, 1, rand.New(rand.NewSource(1)))
	benchHLP(b, in, expr.PaperPlatform())
}

// BenchmarkHLPIndependentFallback is BenchmarkHLPIndependent's 120 tasks
// plus one task whose min(p, q) is twice their area bound. That task sets
// the LP optimum to max min(p, q), where the optimal face is wider than a
// point, so HLP hands the LP to lp.Solve: this is the benchgate's probe for
// the simplex pivot cost.
func BenchmarkHLPIndependentFallback(b *testing.B) {
	in := workloads.LogNormalAccelInstance(120, math.Ln2, 1, rand.New(rand.NewSource(1)))
	pl := expr.PaperPlatform()
	area, err := bounds.AreaBound(in, pl)
	if err != nil {
		b.Fatal(err)
	}
	in = append(in, platform.Task{ID: len(in), Name: "dominant", CPUTime: 2 * area, GPUTime: 2 * area})
	benchHLP(b, in, pl)
}

func benchHLP(b *testing.B, in platform.Instance, pl platform.Platform) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.HLPIndependent(in, pl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeteroPrioIndependent(b *testing.B) {
	in, err := workloads.IndependentTasks(workloads.FactCholesky, 16)
	if err != nil {
		b.Fatal(err)
	}
	pl := expr.PaperPlatform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleIndependent(in, pl, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildFactorizations builds the Cholesky, QR and LU graphs at
// N=16, the three graphs perfbench's dag-wide times as setup_s and the
// sizes hpserve builds on every /schedule request. Its allocs/op holds
// the benchgate to names formatted without fmt and to adjacency rows
// carved from blocks: one allocation more per task or per edge moves it
// past the 10% band.
func BenchmarkBuildFactorizations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range workloads.Factorizations() {
			if _, err := workloads.Build(f, 16); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkScheduleDAGCholesky measures one full DAG schedule of the
// 816-task Cholesky graph with min priorities — the paper's headline
// workload and the benchgate's DAG-path regression probe.
func BenchmarkScheduleDAGCholesky(b *testing.B) {
	g := workloads.Cholesky(16)
	pl := expr.PaperPlatform()
	if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleDAGWide measures one HeteroPrio-min schedule of QR
// N=16 on 480+64, the widest dag-wide platform: the benchgate's probe for
// per-decision costs that grow with the worker count, such as a victim
// sort per idle worker or a completion scan per event.
func BenchmarkScheduleDAGWide(b *testing.B) {
	g := workloads.QR(16)
	pl := platform.NewPlatform(480, 64)
	if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleDAG(g, pl, core.Options{UsePriorities: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleDAGZoo measures the competitor schedulers that run
// on sim.Kernel's event loop (ER-LS, DualHP, MCT and Affinity) on
// Cholesky N=8 at 20+4, so the benchgate's allocs/op covers their loops
// and not only HeteroPrio's.
func BenchmarkScheduleDAGZoo(b *testing.B) {
	g := workloads.Cholesky(8)
	pl := expr.PaperPlatform()
	if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		run  func() (*sim.Schedule, error)
	}{
		{"erls-min", func() (*sim.Schedule, error) { return sched.ERLSDAG(g, pl) }},
		{"dualhp-min", func() (*sim.Schedule, error) { return sched.DualHPDAG(g, pl, sched.RankMin) }},
		{"mct", func() (*sim.Schedule, error) { return sched.MCTDAG(g, pl) }},
		{"affinity", func() (*sim.Schedule, error) { return sched.AffinityDAG(g, pl) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleValidate measures sim.Schedule.Validate, which checks
// every schedule the tournament, hpserve and the figures produce:
// "indep-10k" is a HeteroPrio schedule of 10⁴ log-normal tasks on 20+4,
// "lu-16-wide" HeteroPrio-min on LU N=16 at 120+24, whose 869 aborted
// runs each need their spoliation restart found.
func BenchmarkScheduleValidate(b *testing.B) {
	in := workloads.LogNormalAccelInstance(10000, math.Ln2, 1, rand.New(rand.NewSource(5)))
	res, err := core.ScheduleIndependent(in, platform.NewPlatform(20, 4), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lu := workloads.LU(16)
	luSched, err := expr.RunDAG("HeteroPrio-min", lu, platform.NewPlatform(120, 24))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		s    *sim.Schedule
		in   platform.Instance
		g    *dag.Graph
	}{
		{"indep-10k", res.Schedule, in, nil},
		{"lu-16-wide", luSched, lu.Tasks(), lu},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.s.Validate(bc.in, bc.g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleOnline measures HeteroPrio with release dates: the QR
// N=16 task set released in batches of 64 every 2 time units on 120+24,
// so workers drain each batch and spoliate between arrivals.
func BenchmarkScheduleOnline(b *testing.B) {
	in, err := workloads.IndependentTasks(workloads.FactQR, 16)
	if err != nil {
		b.Fatal(err)
	}
	tasks := make([]core.ReleasedTask, len(in))
	for i, t := range in {
		tasks[i] = core.ReleasedTask{Task: t, Release: float64(2 * (i / 64))}
	}
	pl := platform.NewPlatform(120, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleOnline(tasks, pl, core.Options{UsePriorities: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleIndependentScaling fans 16 independent-instance cells
// across engine pools of growing width. On a multi-core runner the
// ns/op should drop as workers are added; the benchgate tracks the
// workers-1 and workers-4 points.
func BenchmarkScheduleIndependentScaling(b *testing.B) {
	pl := expr.PaperPlatform()
	for _, w := range []int{1, 2, 4, 8} {
		// "workers=8" rather than "workers-8": a trailing -N is how go test
		// encodes GOMAXPROCS, and cmd/benchgate strips that suffix when
		// normalizing names.
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := engine.NewPool(w, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := engine.Map(context.Background(), pool, engine.Job{Cells: 16, Seed: 3},
					func(_ context.Context, c engine.Cell) (float64, error) {
						rng := c.Rand()
						in := workloads.UniformInstance(250, 1, 100, 0.2, 40, rng)
						s, err := core.ScheduleIndependent(in, pl, core.Options{})
						if err != nil {
							return 0, err
						}
						return s.Makespan(), nil
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleIndependent measures the cost of the observer hooks on
// a 1000-task instance: "disabled" is the baseline (nil Observer field),
// "nop-observer" has every emission site live but pointed at obs.Nop.
// Compare allocs/op between the two — they must be identical, which
// TestObserverNopZeroAlloc in internal/core enforces on every test run.
func BenchmarkScheduleIndependent(b *testing.B) {
	pl := expr.PaperPlatform()
	rng := rand.New(rand.NewSource(3))
	in := workloads.UniformInstance(1000, 1, 100, 0.2, 40, rng)
	for name, opt := range map[string]core.Options{
		"disabled":     {},
		"nop-observer": {Observer: obs.Nop{}},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ScheduleIndependent(in, pl, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleIndependentZoo measures the two cheapest competitor
// schedulers (DESIGN.md §15) on the same 1000-task instance as
// BenchmarkScheduleIndependent: both are a sort plus an O(n log m)
// placement loop, so they belong in the benchgate alongside HeteroPrio —
// a regression here means the zoo's shared plumbing got slower, not that
// an LP or a simulation grew.
func BenchmarkScheduleIndependentZoo(b *testing.B) {
	pl := expr.PaperPlatform()
	rng := rand.New(rand.NewSource(3))
	in := workloads.UniformInstance(1000, 1, 100, 0.2, 40, rng)
	for _, bc := range []struct {
		name string
		run  func(platform.Instance, platform.Platform) (*sim.Schedule, error)
	}{
		{"erls", sched.ERLSIndependent},
		{"clb2c", sched.CLB2CIndependent},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(in, pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHDRRecord measures the request-latency histogram's hot path:
// one Record per request, lock-free and allocation-free. The benchgate
// pins allocs/op at zero — any boxing or lazy bucket growth sneaking
// into Record shows up as a gate failure, not a latency mystery.
func BenchmarkHDRRecord(b *testing.B) {
	h := obs.NewHDR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%1000000 + 1))
	}
}

// BenchmarkSpanStartEnd measures a StartChild/End pair in the steady
// state of a long-lived trace: the span comes from the tracer's pool and
// goes back on End, and past the per-trace retention cap nothing is
// appended, so the cycle must be allocation-free (gate-pinned at zero).
func BenchmarkSpanStartEnd(b *testing.B) {
	tr := obs.NewTracer(1)
	root := tr.StartTrace("bench")
	// Warm past the retention cap so the retained-spans append growth is
	// outside the measured loop.
	for i := 0; i < 5000; i++ {
		root.StartChild("phase").End()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := root.StartChild("phase")
		sp.AnnotateInt("iter", int64(i))
		sp.End()
	}
}
