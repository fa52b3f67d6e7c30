// Command experiments regenerates every table and figure of the paper's
// evaluation section, printing Markdown tables to stdout and writing CSV
// files to -out (default results/).
//
// Usage:
//
//	experiments                      # everything, paper-sized sweep (minutes)
//	experiments -exp fig6            # one experiment
//	experiments -quick -out /tmp/hp  # reduced sweep (seconds); -quick refuses -out results
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// logger is the structured run log; main swaps in a live one so run()
// keeps its plain signature for the tests.
var logger = obs.NewLogger(nil)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, table1, table2, fig6, fig7, fig8, fig9, ablation, shape, bounds, kernelmix, distribution, adversary, transfer, robustness, tournament")
		out     = flag.String("out", defaultOut, "output directory for CSV files")
		quick   = flag.Bool("quick", false, "reduced N sweep (fast)")
		workers = flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS); results are identical for any value")
	)
	flag.Parse()
	// Logs stay behind HP_LOG: the default CLI output is stdout only.
	if os.Getenv(obs.LogEnv) != "" {
		logger = obs.NewLogger(os.Stderr)
	}
	if err := run(*exp, *out, *quick, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// defaultOut is -out's default: the checked-in reproduction outputs,
// which only the full sweep reproduces.
const defaultOut = "results"

func run(exp, out string, quick bool, workers int) error {
	if quick && filepath.Clean(out) == defaultOut {
		return fmt.Errorf("-quick would overwrite the checked-in %s/ with reduced-sweep values; pass -out with another directory", defaultOut)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	pool := engine.NewPool(workers, nil)
	pl := expr.PaperPlatform()
	ns := expr.PaperNs()
	if quick {
		ns = expr.SmallNs()
	}
	logger.Info("experiments starting", "exp", exp, "out", out, "quick", quick,
		"workers", pool.Width(), "platform", pl.String())

	emit := func(name string, t *stats.Table) error {
		fmt.Println(t.Markdown())
		path := filepath.Join(out, name+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("(written to %s)\n\n", path)
		logger.Info("experiment written", "experiment", name, "path", path)
		return nil
	}
	emitCharts := func(charts map[string]*plot.Chart) error {
		for name, c := range charts {
			path := filepath.Join(out, name+".svg")
			if err := os.WriteFile(path, []byte(c.SVG(760, 420)), 0o644); err != nil {
				return err
			}
			fmt.Printf("(chart written to %s)\n", path)
			logger.Debug("chart written", "chart", name, "path", path)
		}
		return nil
	}

	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	if want("table1") {
		ran = true
		if err := emit("table1", expr.Table1Table()); err != nil {
			return err
		}
	}
	if want("table2") {
		ran = true
		start := time.Now()
		rows, err := expr.Table2()
		if err != nil {
			return err
		}
		fmt.Printf("table2 computed in %v\n", time.Since(start).Round(time.Millisecond))
		if err := emit("table2", expr.Table2Table(rows)); err != nil {
			return err
		}
	}
	if want("fig6") {
		ran = true
		start := time.Now()
		rows, err := expr.Fig6Pool(ctx, pool, ns, pl)
		if err != nil {
			return err
		}
		fmt.Printf("fig6 computed in %v\n", time.Since(start).Round(time.Millisecond))
		if err := emit("fig6", expr.Fig6Table(rows)); err != nil {
			return err
		}
		if err := emitCharts(expr.Fig6Charts(rows)); err != nil {
			return err
		}
	}
	if want("fig7") || want("fig8") || want("fig9") {
		ran = true
		start := time.Now()
		rows, err := expr.Fig7Pool(ctx, pool, ns, pl)
		if err != nil {
			return err
		}
		fmt.Printf("fig7/8/9 computed in %v\n", time.Since(start).Round(time.Millisecond))
		if exp == "all" || exp == "fig7" {
			if err := emit("fig7", expr.Fig7Table(rows)); err != nil {
				return err
			}
		}
		if exp == "all" || exp == "fig8" {
			if err := emit("fig8", expr.Fig8Table(rows)); err != nil {
				return err
			}
		}
		if exp == "all" || exp == "fig9" {
			if err := emit("fig9", expr.Fig9Table(rows)); err != nil {
				return err
			}
		}
		charts := map[string]*plot.Chart{}
		if exp == "all" || exp == "fig7" {
			for k, v := range expr.Fig7Charts(rows) {
				charts[k] = v
			}
		}
		if exp == "all" || exp == "fig8" {
			for k, v := range expr.Fig8Charts(rows) {
				charts[k] = v
			}
		}
		if exp == "all" || exp == "fig9" {
			for k, v := range expr.Fig9Charts(rows) {
				charts[k] = v
			}
		}
		if err := emitCharts(charts); err != nil {
			return err
		}
	}
	if want("ablation") {
		ran = true
		start := time.Now()
		rows, err := expr.AblationPool(ctx, pool, ns, pl)
		if err != nil {
			return err
		}
		fmt.Printf("ablation computed in %v\n", time.Since(start).Round(time.Millisecond))
		if err := emit("ablation", expr.AblationTable(rows)); err != nil {
			return err
		}
	}
	if want("shape") {
		ran = true
		n := 16
		if quick {
			n = 8
		}
		rows, err := expr.Shape(n, expr.DefaultShapes())
		if err != nil {
			return err
		}
		if err := emit("shape", expr.ShapeTable(rows)); err != nil {
			return err
		}
	}
	if want("bounds") {
		ran = true
		bns := []int{4, 8, 12, 16, 24}
		if quick {
			bns = []int{4, 8}
		}
		rows, err := expr.BoundsCmpPool(ctx, pool, bns, pl)
		if err != nil {
			return err
		}
		if err := emit("bounds", expr.BoundsCmpTable(rows)); err != nil {
			return err
		}
	}
	if want("kernelmix") {
		ran = true
		n := 16
		if quick {
			n = 8
		}
		var all []expr.KernelMixRow
		for _, fact := range workloads.Factorizations() {
			rows, err := expr.KernelMixPool(ctx, pool, fact, n, pl)
			if err != nil {
				return err
			}
			all = append(all, rows...)
		}
		if err := emit("kernelmix", expr.KernelMixTable(all)); err != nil {
			return err
		}
	}
	if want("distribution") {
		ran = true
		samples := 300
		if quick {
			samples = 50
		}
		rows, err := expr.DistributionPool(ctx, pool, samples, 120, pl, 2017)
		if err != nil {
			return err
		}
		if err := emit("distribution", expr.DistributionTable(rows)); err != nil {
			return err
		}
	}
	if want("adversary") {
		ran = true
		iters := 4000
		if quick {
			iters = 800
		}
		start := time.Now()
		rows, err := expr.AdversaryPool(ctx, pool, iters, 2017)
		if err != nil {
			return err
		}
		fmt.Printf("adversary computed in %v\n", time.Since(start).Round(time.Millisecond))
		if err := emit("adversary", expr.AdversaryTable(rows)); err != nil {
			return err
		}
	}
	if want("transfer") {
		ran = true
		n := 16
		if quick {
			n = 8
		}
		rows, err := expr.Transfer(n, []float64{0, 0.5, 1, 2, 4, 8}, pl)
		if err != nil {
			return err
		}
		if err := emit("transfer", expr.TransferTable(rows)); err != nil {
			return err
		}
	}
	if want("robustness") {
		ran = true
		start := time.Now()
		n, seeds := 16, 5
		if quick {
			n, seeds = 8, 2
		}
		var all []expr.RobustnessRow
		for _, fact := range workloads.Factorizations() {
			rows, err := expr.RobustnessPool(ctx, pool, fact, n, []float64{0, 0.1, 0.2, 0.4}, seeds, pl)
			if err != nil {
				return err
			}
			all = append(all, rows...)
		}
		fmt.Printf("robustness computed in %v\n", time.Since(start).Round(time.Millisecond))
		if err := emit("robustness", expr.RobustnessTable(all)); err != nil {
			return err
		}
	}
	if want("tournament") {
		ran = true
		cfg := expr.DefaultTournament()
		if quick {
			cfg = expr.QuickTournament()
		}
		start := time.Now()
		rows, err := expr.TournamentPool(ctx, pool, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("tournament computed in %v\n", time.Since(start).Round(time.Millisecond))
		if err := emit("tournament", expr.TournamentTable(rows)); err != nil {
			return err
		}
		if err := emit("tournament_wins", expr.TournamentWinsTable(rows)); err != nil {
			return err
		}
		if err := emitCharts(expr.TournamentCharts(rows)); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	st := pool.Stats()
	logger.Info("experiments done", "workers", st.Width, "cells", st.Cells,
		"cellBusySeconds", st.BusySeconds)
	return nil
}
