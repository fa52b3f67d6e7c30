// Command hpsched runs one or more schedulers on one workload and prints
// the schedule metrics (and optionally an ASCII Gantt chart).
//
// Usage examples:
//
//	hpsched -alg HeteroPrio-min -workload cholesky -n 8 -cpus 20 -gpus 4
//	hpsched -alg HEFT-avg -workload qr -n 12 -gantt
//	hpsched -alg HeteroPrio -independent -workload lu -n 8
//	hpsched -alg DualHP -independent -workload cholesky -n 8 -csv
//	hpsched -alg all -workload cholesky -n 8 -workers 4
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// logger is the structured run log; main swaps in a live one so run()
// keeps its plain signature for the tests.
var logger = obs.NewLogger(nil)

func main() {
	var (
		alg         = flag.String("alg", "HeteroPrio-min", "algorithm, comma-separated list, or \"all\": DAG mode accepts "+fmt.Sprint(expr.AllDAGAlgorithms())+"; independent mode accepts "+fmt.Sprint(expr.AllIndepAlgorithms()))
		workload    = flag.String("workload", "cholesky", "workload: cholesky, qr, lu, wavefront, chains or uniform")
		n           = flag.Int("n", 8, "workload size parameter (tiles, grid side, chain count, task count)")
		cpus        = flag.Int("cpus", 20, "number of CPU workers")
		gpus        = flag.Int("gpus", 4, "number of GPU workers")
		independent = flag.Bool("independent", false, "drop dependencies and schedule the kernel instances as independent tasks")
		gantt       = flag.Bool("gantt", false, "print an ASCII Gantt chart")
		csv         = flag.Bool("csv", false, "print the schedule as CSV")
		chromeOut   = flag.String("chrome", "", "write a Chrome trace-event JSON file (open in chrome://tracing or ui.perfetto.dev)")
		svgOut      = flag.String("svg", "", "write an SVG Gantt chart to this file")
		workers     = flag.Int("workers", 0, "parallel workers for multi-algorithm runs (0 = GOMAXPROCS)")
	)
	flag.Parse()
	// Logs stay behind HP_LOG: the default CLI output is stdout only.
	if os.Getenv(obs.LogEnv) != "" {
		logger = obs.NewLogger(os.Stderr)
	}

	if err := run(*alg, *workload, *n, *cpus, *gpus, *independent, *gantt, *csv, *chromeOut, *svgOut, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "hpsched:", err)
		os.Exit(1)
	}
}

// parseAlgs expands the -alg flag: a single name, a comma-separated list,
// or "all" (every algorithm of the current mode).
func parseAlgs(spec string, independent bool) []string {
	if spec == "all" {
		if independent {
			return expr.AllIndepAlgorithms()
		}
		return expr.AllDAGAlgorithms()
	}
	var algs []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			algs = append(algs, a)
		}
	}
	return algs
}

func run(algSpec, workload string, n, cpus, gpus int, independent, gantt, csv bool, chromeOut, svgOut string, workers int) error {
	algs := parseAlgs(algSpec, independent)
	if len(algs) == 0 {
		return fmt.Errorf("no algorithm given")
	}
	if len(algs) == 1 {
		return runOne(algs[0], workload, n, cpus, gpus, independent, gantt, csv, chromeOut, svgOut)
	}
	if gantt || csv || chromeOut != "" || svgOut != "" {
		return fmt.Errorf("-gantt/-csv/-chrome/-svg need a single -alg, got %d algorithms", len(algs))
	}
	// Fan the algorithms out on a pool; Map returns the reports in flag
	// order, so the output is identical for any -workers value.
	pool := engine.NewPool(workers, nil)
	reports, err := engine.Map(context.Background(), pool, engine.Job{Cells: len(algs)},
		func(_ context.Context, c engine.Cell) (string, error) {
			return report(algs[c.Index], workload, n, cpus, gpus, independent)
		})
	if err != nil {
		return err
	}
	for i, r := range reports {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r)
	}
	return nil
}

func runOne(alg, workload string, n, cpus, gpus int, independent, gantt, csv bool, chromeOut, svgOut string) error {
	pl := platform.Platform{CPUs: cpus, GPUs: gpus}
	if err := pl.Validate(); err != nil {
		return err
	}

	s, in, lower, err := compute(alg, workload, n, pl, independent)
	if err != nil {
		return err
	}
	fmt.Print(summaryText(alg, workload, n, pl, independent, s, in, lower))
	if gantt {
		fmt.Println()
		fmt.Print(s.Gantt(100))
	}
	if csv {
		fmt.Println()
		fmt.Print(s.CSV())
	}
	if chromeOut != "" {
		names := make(map[int]string, len(in))
		for _, t := range in {
			names[t.ID] = t.Name
		}
		raw, err := trace.Chrome(s, names)
		if err != nil {
			return err
		}
		if err := os.WriteFile(chromeOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("chrome trace written to %s\n", chromeOut)
	}
	if svgOut != "" {
		if err := os.WriteFile(svgOut, []byte(trace.SVG(s, 1200)), 0o644); err != nil {
			return err
		}
		fmt.Printf("svg gantt written to %s\n", svgOut)
	}
	return nil
}

// compute builds the workload, schedules it with alg, validates the
// result, and derives the lower bound.
func compute(alg, workload string, n int, pl platform.Platform, independent bool) (*sim.Schedule, platform.Instance, float64, error) {
	logger.Debug("building workload", "workload", workload, "n", n, "independent", independent)
	start := time.Now()
	var (
		s     *sim.Schedule
		in    platform.Instance
		lower float64
	)
	if independent {
		g, err := buildWorkload(workload, n)
		if err != nil {
			return nil, nil, 0, err
		}
		in = g.Tasks().Clone()
		s, err = expr.RunIndependent(alg, in, pl)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := s.Validate(in, nil); err != nil {
			return nil, nil, 0, fmt.Errorf("schedule validation failed: %w", err)
		}
		lower, err = bounds.Lower(in, pl)
		if err != nil {
			return nil, nil, 0, err
		}
	} else {
		g, err := buildWorkload(workload, n)
		if err != nil {
			return nil, nil, 0, err
		}
		in = g.Tasks()
		s, err = expr.RunDAG(alg, g, pl)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := s.Validate(in, g); err != nil {
			return nil, nil, 0, fmt.Errorf("schedule validation failed: %w", err)
		}
		lower, err = bounds.DAGLowerRefined(g, pl)
		if err != nil {
			return nil, nil, 0, err
		}
	}

	sum := obs.Summarize(s, in, lower)
	logger.Info("run complete",
		"workload", workload, "alg", alg, "n", n, "independent", independent,
		"tasks", sum.Tasks, "makespan_ms", sum.Makespan, "ratio", sum.Ratio,
		"spoliations", sum.Spoliations, "wasted_ms", sum.WastedWork,
		"elapsed_ms", float64(time.Since(start).Microseconds())/1000)
	return s, in, lower, nil
}

// summaryText renders the metric block printed for every run.
func summaryText(alg, workload string, n int, pl platform.Platform, independent bool, s *sim.Schedule, in platform.Instance, lower float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload:   %s N=%d (%d tasks), %s\n", workload, n, len(in), pl)
	fmt.Fprintf(&b, "algorithm:  %s (independent=%v)\n", alg, independent)
	fmt.Fprintf(&b, "makespan:   %.4g ms\n", s.Makespan())
	fmt.Fprintf(&b, "lowerbound: %.4g ms (ratio %.4f)\n", lower, s.Makespan()/lower)
	fmt.Fprintf(&b, "spoliated:  %d runs\n", s.SpoliationCount())
	for _, k := range []platform.Kind{platform.CPU, platform.GPU} {
		fmt.Fprintf(&b, "%s: busy %.4g ms, idle %.4g ms, equivalent accel %.4g\n",
			k, s.BusyTime(k), s.IdleTime(k), s.EquivalentAccel(in, k))
	}
	return b.String()
}

// report is the multi-algorithm cell body: one full compute plus the
// rendered summary, returned as a string so the reduction stays ordered.
func report(alg, workload string, n, cpus, gpus int, independent bool) (string, error) {
	pl := platform.Platform{CPUs: cpus, GPUs: gpus}
	if err := pl.Validate(); err != nil {
		return "", err
	}
	s, in, lower, err := compute(alg, workload, n, pl, independent)
	if err != nil {
		return "", err
	}
	return summaryText(alg, workload, n, pl, independent, s, in, lower), nil
}

// buildWorkload constructs the requested task graph. Independent mode
// drops the dependencies afterwards.
func buildWorkload(name string, n int) (*dag.Graph, error) {
	switch name {
	case "cholesky", "qr", "lu":
		return workloads.Build(workloads.Factorization(name), n)
	case "wavefront":
		if n < 1 {
			return nil, fmt.Errorf("wavefront needs n >= 1")
		}
		return workloads.DefaultWavefront(n), nil
	case "chains":
		if n < 1 {
			return nil, fmt.Errorf("chains needs n >= 1")
		}
		even := platform.Task{CPUTime: 10, GPUTime: 1}
		odd := platform.Task{CPUTime: 2, GPUTime: 3}
		return workloads.BagOfChains(n, 10, even, odd), nil
	case "uniform":
		if n < 1 {
			return nil, fmt.Errorf("uniform needs n >= 1")
		}
		rng := rand.New(rand.NewSource(1))
		in := workloads.UniformInstance(n, 1, 100, 0.2, 40, rng)
		return dag.FromInstance(in), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}
