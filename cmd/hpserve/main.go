// Command hpserve is a small web dashboard for exploring schedules: pick
// a workload, a platform shape and an algorithm, and the server renders
// the SVG Gantt chart, the metrics and the comparison against the lower
// bound in the browser.
//
// Observability endpoints: Prometheus metrics at /metrics (HDR latency
// buckets carry exemplar trace IDs), recent run summaries as JSON at
// /runs, the Perfetto trace of a computed schedule at /trace, recent
// request traces at /traces (slowest-first) with per-request span trees
// at /trace/{id}, and the standard pprof handlers under /debug/pprof/.
// Structured logs go to stderr; HP_LOG=debug enables per-request debug
// lines.
//
// The result caches and the trace ring hold 256 entries each, and a
// request that cannot finish within 10 s is rejected with 503.
//
//	HP_LOG=debug hpserve -addr :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	cfg := defaultServeConfig()
	flag.IntVar(&cfg.queueDepth, "queue-depth", cfg.queueDepth,
		"max requests waiting for an execution slot before shedding with 429")
	flag.Parse()
	logger := obs.NewLogger(os.Stderr)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           newServer(logger, cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("hpserve listening", "addr", "http://"+*addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		logger.Info("shutdown signal received, draining connections")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
			os.Exit(1)
		}
		logger.Info("hpserve stopped cleanly")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "hpserve:", err)
			os.Exit(1)
		}
	}
}
