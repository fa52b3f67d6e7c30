// Command hpload drives an hpserve instance with a deterministic,
// seeded open-loop workload and prints an SLO report: latency quantiles
// from an HDR histogram, hit/shed rates, and a per-phase breakdown
// resolved from sampled request traces.
//
// The request plan (arrival times, endpoints, parameters) is a pure
// function of -seed/-n/-rate over a fixed mix of 9 /schedule requests to
// 1 /compare; the -concurrency cap only gates dispatch, so the plan
// section of the report is reproducible across machines and concurrency
// levels while the latency section reflects the target's actual
// behaviour. Each request times out after 30 s. The report's cache
// breakdown (lookups, hits, computed) comes from the target's /metrics
// before and after.
//
//	hpload -url http://127.0.0.1:8080 -n 200 -rate 50 -seed 42 -json report.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/load"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hpload:", err)
		os.Exit(1)
	}
}

func run() error {
	url := flag.String("url", "http://127.0.0.1:8080", "base URL of the hpserve instance")
	n := flag.Int("n", 200, "number of requests in the plan")
	rate := flag.Float64("rate", 50, "mean arrival rate in requests per second (Poisson)")
	concurrency := flag.Int("concurrency", 8, "max in-flight requests (gates dispatch only)")
	seed := flag.Int64("seed", 1, "plan seed; same seed, same plan at any concurrency")
	traceSample := flag.Int("trace-sample", 8, "resolve every Nth OK request's trace for the phase breakdown; 0 disables")
	jsonPath := flag.String("json", "", "also write the report as JSON to this file")
	flag.Parse()

	cfg := load.Config{
		BaseURL:     *url,
		Plan:        load.PlanConfig{Requests: *n, Rate: *rate, Seed: *seed},
		Concurrency: *concurrency,
		TraceSample: *traceSample,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := load.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
	}
	return nil
}
