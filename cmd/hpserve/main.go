// Command hpserve is a small web dashboard for exploring schedules: pick
// a workload, a platform shape and an algorithm, and the server renders
// the SVG Gantt chart, the metrics and the comparison against the lower
// bound in the browser.
//
// Observability endpoints: Prometheus metrics at /metrics (HDR latency
// buckets carry exemplar trace IDs), recent run summaries as JSON at
// /runs, live Perfetto traces at /trace, recent request traces at
// /traces (slowest-first) with per-request span trees at /trace/{id},
// and the standard pprof handlers under /debug/pprof/. Structured logs
// go to stderr; -v (or HP_LOG=debug) enables per-request debug lines.
//
//	hpserve -addr :8080 -v
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
	verbose := flag.Bool("v", false, "verbose (debug) logging; HP_LOG overrides")
	def := defaultServeConfig()
	cacheEntries := flag.Int("cache-entries", def.cacheEntries,
		"max entries in the schedule result cache (0 keeps a single entry)")
	queueDepth := flag.Int("queue-depth", def.queueDepth,
		"max requests waiting for an execution slot before shedding with 429")
	requestTimeout := flag.Duration("request-timeout", def.requestTimeout,
		"per-request deadline; expired requests are rejected with 503")
	traceEntries := flag.Int("trace-entries", def.traceEntries,
		"finished request traces retained for /traces and /trace/{id}")
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, *verbose)

	srv := &http.Server{
		Addr: *addr,
		Handler: newServer(logger, serveConfig{
			cacheEntries:   *cacheEntries,
			queueDepth:     *queueDepth,
			requestTimeout: *requestTimeout,
			traceEntries:   *traceEntries,
		}),
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
