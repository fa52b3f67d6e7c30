package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// serveSeed is the fixed seed of the serving path's workload generators
// (only "uniform" draws randomness). It is part of every cache key, so a
// future per-request seed parameter starts cache-correct by construction.
const serveSeed = 1

// The result caches and the request-trace ring are fixed in size:
// cacheEntries bounds each LRU result cache (entries, not bytes), and
// traceEntries the finished request traces served at /traces and
// /trace/{id}.
const (
	cacheEntries = 256
	traceEntries = 256
)

// serveConfig sizes the admission valve and the per-request deadline.
type serveConfig struct {
	// queueDepth bounds how many requests may wait for an execution slot;
	// arrivals beyond it are shed with 429.
	queueDepth int
	// maxConcurrent bounds simultaneously executing requests; <= 0 means
	// the simulation pool's width.
	maxConcurrent int
	// requestTimeout is the per-request deadline; a request that cannot
	// finish in time is rejected with 503.
	requestTimeout time.Duration
}

func defaultServeConfig() serveConfig {
	return serveConfig{queueDepth: 64, requestTimeout: 10 * time.Second}
}

// server carries the parsed templates and the observability state: a
// metrics registry scraped at /metrics, the live scheduler observer
// feeding it, a ring of recent run summaries served at /runs, and the
// structured run logger. Handlers are safe for concurrent use.
type server struct {
	mux  *http.ServeMux
	page *template.Template
	log  *slog.Logger

	reg         *obs.Registry
	pool        *engine.Pool
	sched       *obs.SchedulerMetrics
	runs        *obs.RunLog
	runMakespan *obs.Histogram
	runRatio    *obs.Histogram
	runsTotal   *obs.CounterVec
	httpReqs    *obs.CounterVec
	httpDur     *obs.HistogramVec
	runSeq      atomic.Uint64

	// Request tracing: every request through a traced handler gets a root
	// span; finished traces land in the tracer's ring (/traces,
	// /trace/{id}) and feed the HDR latency families, whose tail-bucket
	// exemplars carry the trace IDs of the slow requests that landed there.
	tracer      *obs.Tracer
	latReq      *obs.HDRVec
	latPhase    *obs.HDRVec
	tracesTotal *obs.Counter
	traceDrops  *obs.Counter

	// Serving front end: exact result caches (schedule pages and compare
	// tables cache separately but share the hp_cache_* metric families),
	// the admission valve, and the per-request deadline.
	schedCache   *serve.Cache[*scheduleResult]
	compareCache *serve.Cache[[]obs.RunSummary]
	admit        *serve.Admission
	timeout      time.Duration
}

func newServer(logger *slog.Logger, cfg serveConfig) *server {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := obs.NewRegistry()
	s := &server{
		mux: http.NewServeMux(),
		log: logger,
		reg: reg,
		// One pool shared by every request; its gauges and counters land in
		// the same registry, so /metrics exposes worker occupancy.
		pool:    engine.NewPool(0, reg),
		sched:   obs.NewSchedulerMetrics(reg),
		runs:    obs.NewRunLog(128),
		timeout: cfg.requestTimeout,
		runMakespan: reg.Histogram("hp_run_makespan",
			"Makespans of completed runs in simulated milliseconds.", obs.ExpBuckets(1, 2, 20)),
		runRatio: reg.Histogram("hp_run_ratio",
			"Makespan over the refined lower bound, per completed run.",
			[]float64{1, 1.05, 1.1, 1.2, 1.35, 1.5, 2, 3, 3.42}),
		runsTotal: reg.CounterVec("hp_runs_total",
			"Completed scheduling runs, by algorithm.", "alg"),
		httpReqs: reg.CounterVec("hp_http_requests_total",
			"HTTP requests served, by handler.", "handler"),
		httpDur: reg.HistogramVec("hp_http_request_duration_seconds",
			"HTTP request latency in seconds, by handler.",
			"handler", []float64{0.001, 0.005, 0.02, 0.1, 0.5, 2}),
		latReq: reg.HDRVec("hp_latency_request_us",
			"End-to-end request latency in microseconds (HDR, ~3% relative error), by handler; bucket exemplars carry trace IDs.",
			"handler"),
		latPhase: reg.HDRVec("hp_latency_phase_us",
			"Per-phase request latency in microseconds (admission, cache, coalesce, compute, cell, render), by phase; bucket exemplars carry trace IDs.",
			"phase"),
		tracesTotal: reg.Counter("hp_trace_finished_total",
			"Request traces finished and retained in the trace ring."),
		traceDrops: reg.Counter("hp_trace_dropped_spans_total",
			"Spans discarded by the per-trace retention bound."),
	}
	s.tracer = obs.NewTracer(traceEntries)
	s.tracer.OnFinish = s.recordTrace
	s.schedCache = serve.NewCache[*scheduleResult](cacheEntries, reg)
	s.compareCache = serve.NewCache[[]obs.RunSummary](cacheEntries, reg)
	maxConcurrent := cfg.maxConcurrent
	if maxConcurrent <= 0 {
		maxConcurrent = s.pool.Width()
	}
	s.admit = serve.NewAdmission(maxConcurrent, cfg.queueDepth, reg)
	s.page = template.Must(template.New("page").Parse(pageHTML))
	s.handle("index", "/", s.handleIndex)
	s.handle("schedule", "/schedule", s.handleSchedule)
	s.handle("compare", "/compare", s.handleCompare)
	s.handle("trace", "/trace", s.handleTrace)
	// Introspection endpoints are instrumented but not traced: a /traces
	// poll must not fill the trace ring with reads of the trace ring.
	s.handlePlain("runs", "/runs", s.handleRuns)
	s.handlePlain("tracetree", "/trace/{id}", s.handleTraceTree)
	s.handlePlain("traces", "/traces", s.handleTraces)
	s.handlePlain("metrics", "/metrics", s.reg.Handler().ServeHTTP)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// handle registers a named, instrumented, traced handler: request count
// and latency per handler name, a debug log line per request, and a root
// span covering the whole request. The trace ID is returned in the
// X-Trace-Id response header, and the handler sees the span via the
// request context, so every layer below (admission, cache, pool cells,
// compute) hangs its child spans off this root.
func (s *server) handle(name, pattern string, h http.HandlerFunc) {
	reqs := s.httpReqs.With(name) // pre-seed so the series scrapes at 0
	dur := s.httpDur.With(name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		sp := s.tracer.StartTrace(name)
		sp.Annotate("path", r.URL.Path)
		w.Header().Set("X-Trace-Id", obs.FormatID(sp.TraceID()))
		h(w, r.WithContext(obs.ContextWithSpan(r.Context(), sp)))
		sp.End()
		elapsed := time.Since(start)
		dur.Observe(elapsed.Seconds())
		s.log.Debug("http request", "handler", name, "path", r.URL.Path, "elapsed", elapsed)
	})
}

// handlePlain registers a named, instrumented handler without tracing —
// for the introspection endpoints whose own requests would otherwise
// pollute the trace ring they expose.
func (s *server) handlePlain(name, pattern string, h http.HandlerFunc) {
	reqs := s.httpReqs.With(name)
	dur := s.httpDur.With(name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		h(w, r)
		elapsed := time.Since(start)
		dur.Observe(elapsed.Seconds())
		s.log.Debug("http request", "handler", name, "path", r.URL.Path, "elapsed", elapsed)
	})
}

// recordTrace is the tracer's OnFinish hook: it feeds the HDR latency
// families from the finished trace — the root duration into the request
// family, every child span into the phase family — carrying the trace ID
// as the bucket exemplar, so a tail-latency bucket on /metrics points at
// a concrete /trace/{id} to explain it.
func (s *server) recordTrace(td *obs.TraceData) {
	s.tracesTotal.Inc()
	if d := td.Dropped(); d > 0 {
		s.traceDrops.Add(float64(d))
	}
	s.latReq.With(td.Name).RecordExemplar(int64(td.Duration()/time.Microsecond), td.ID)
	for _, sd := range td.Spans() {
		if sd.Parent == 0 {
			continue // the root is the request family's sample
		}
		s.latPhase.With(sd.Name).RecordExemplar(int64(sd.Duration()/time.Microsecond), td.ID)
	}
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// viewModel feeds the page template.
type viewModel struct {
	Workloads  []string
	Algorithms []string
	Form       scheduleForm
	Result     *scheduleResult
	Compare    []obs.RunSummary
	Error      string
}

type scheduleForm struct {
	Workload string
	N        int
	CPUs     int
	GPUs     int
	Alg      string
}

// scheduleResult is the run summary plus the rendered Gantt chart.
type scheduleResult struct {
	obs.RunSummary
	SVG template.HTML
}

func defaultForm() scheduleForm {
	return scheduleForm{Workload: "cholesky", N: 8, CPUs: 8, GPUs: 2, Alg: "HeteroPrio-min"}
}

// parseForm reads the request's schedule form over the defaults. An
// empty field keeps its default; a non-integer n, cpus or gpus is an
// error naming the field.
func parseForm(r *http.Request) (scheduleForm, error) {
	form := defaultForm()
	if v := r.FormValue("workload"); v != "" {
		form.Workload = v
	}
	if v := r.FormValue("alg"); v != "" {
		form.Alg = v
	}
	var err error
	if form.N, err = formInt(r, "n", form.N); err != nil {
		return form, err
	}
	if form.CPUs, err = formInt(r, "cpus", form.CPUs); err != nil {
		return form, err
	}
	form.GPUs, err = formInt(r, "gpus", form.GPUs)
	return form, err
}

func serveWorkloads() []string {
	return []string{"cholesky", "qr", "lu", "wavefront", "chains", "uniform"}
}

func (s *server) viewModel(form scheduleForm) viewModel {
	return viewModel{Workloads: serveWorkloads(), Algorithms: expr.DAGAlgorithms(), Form: form}
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.render(r, w, s.viewModel(defaultForm()), http.StatusOK)
}

// wantJSON reports whether the request asked for a JSON body instead of
// the HTML page (format=json). The JSON bodies are marshalled from the
// cached values, so a cache hit is byte-identical to the miss that
// populated it.
func wantJSON(r *http.Request) bool { return r.FormValue("format") == "json" }

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	form, err := parseForm(r)
	if err != nil {
		s.fail(w, r, form, err)
		return
	}
	res, err := s.runSchedule(ctx, form)
	if err != nil {
		s.fail(w, r, form, err)
		return
	}
	if wantJSON(r) {
		s.writeJSONCtx(r.Context(), w, res.RunSummary)
		return
	}
	vm := s.viewModel(form)
	vm.Result = res
	s.render(r, w, vm, http.StatusOK)
}

// handleCompare runs every DAG algorithm on the same workload and renders
// a comparison table (or, with format=json, the rows as JSON).
func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	form, err := parseForm(r)
	if err != nil {
		s.fail(w, r, form, err)
		return
	}
	rows, err := s.runCompare(ctx, form)
	if err != nil {
		s.fail(w, r, form, err)
		return
	}
	if wantJSON(r) {
		s.writeJSONCtx(r.Context(), w, struct {
			Rows []obs.RunSummary `json:"rows"`
		}{Rows: rows})
		return
	}
	vm := s.viewModel(form)
	vm.Compare = rows
	s.render(r, w, vm, http.StatusOK)
}

// fail writes an error response in the format the request asked for,
// mapping the error to its HTTP status.
func (s *server) fail(w http.ResponseWriter, r *http.Request, form scheduleForm, err error) {
	status := s.errStatus(err)
	if wantJSON(r) {
		jsonError(w, err, status)
		return
	}
	vm := s.viewModel(form)
	vm.Error = err.Error()
	s.render(r, w, vm, status)
}

// writeJSON marshals v indented (matching /runs) and writes it as the
// whole response body. A traced request gets a "render" span covering
// the marshal and the response write.
func (s *server) writeJSON(w http.ResponseWriter, v any) {
	s.writeJSONCtx(context.Background(), w, v)
}

func (s *server) writeJSONCtx(ctx context.Context, w http.ResponseWriter, v any) {
	rsp := obs.SpanFromContext(ctx).StartChild("render")
	defer rsp.End()
	body, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		jsonError(w, err, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// handleRuns serves the recent run summaries as JSON, newest first.
func (s *server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	payload := struct {
		Runs []obs.RunSummary `json:"runs"`
	}{Runs: s.runs.Recent()}
	body, err := json.MarshalIndent(payload, "", " ")
	if err != nil {
		jsonError(w, err, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// handleTrace runs the requested schedule and serves it as
// Perfetto/Chrome trace-event JSON.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	form, err := parseForm(r)
	if err != nil {
		jsonError(w, err, s.errStatus(err))
		return
	}
	g, pl, err := buildRun(form)
	if err != nil {
		jsonError(w, err, s.errStatus(err))
		return
	}
	// Traces are never cached, but they still count against the
	// admission valve like any other simulation.
	release, err := s.admit.Acquire(ctx)
	if err != nil {
		jsonError(w, err, s.errStatus(err))
		return
	}
	defer release()
	sched, _, err := s.executeRun(ctx, form, g, pl)
	if err != nil {
		jsonError(w, err, s.errStatus(err))
		return
	}
	names := make(map[int]string, g.Len())
	for _, t := range g.Tasks() {
		names[t.ID] = t.Name
	}
	raw, err := trace.Chrome(sched, names)
	if err != nil {
		jsonError(w, err, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// handleTraceTree serves one retained request trace as its span tree
// (JSON): phase start offsets, durations, self times, and annotations.
func (s *server) handleTraceTree(w http.ResponseWriter, r *http.Request) {
	id, ok := obs.ParseID(r.PathValue("id"))
	if !ok {
		jsonError(w, fmt.Errorf("malformed trace id %q", r.PathValue("id")), http.StatusBadRequest)
		return
	}
	td := s.tracer.Trace(id)
	if td == nil {
		jsonError(w, fmt.Errorf("trace %s not found (evicted or never existed)", obs.FormatID(id)), http.StatusNotFound)
		return
	}
	s.writeJSON(w, td.Tree())
}

// traceListEntry is one row of the /traces listing.
type traceListEntry struct {
	TraceID    string `json:"trace_id"`
	Name       string `json:"name"`
	DurationUS int64  `json:"duration_us"`
	Spans      int    `json:"spans"`
	Finished   bool   `json:"finished"`
}

// handleTraces lists the retained traces slowest-first (the tail-latency
// investigation order), bounded by ?limit= (default 50).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit, err := formInt(r, "limit", 50)
	if err != nil {
		jsonError(w, err, http.StatusBadRequest)
		return
	}
	if limit < 1 {
		limit = 1
	}
	rec := s.tracer.Recent()
	rows := make([]traceListEntry, 0, len(rec))
	for _, td := range rec {
		rows = append(rows, traceListEntry{
			TraceID:    obs.FormatID(td.ID),
			Name:       td.Name,
			DurationUS: int64(td.Duration() / time.Microsecond),
			Spans:      len(td.Spans()),
			Finished:   td.Finished(),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].DurationUS > rows[j].DurationUS })
	if len(rows) > limit {
		rows = rows[:limit]
	}
	s.writeJSON(w, struct {
		Traces []traceListEntry `json:"traces"`
	}{Traces: rows})
}

// internalError marks failures that are the server's fault (HTTP 500);
// everything else reported by buildRun or executeRun is a client input
// error (400).
type internalError struct{ err error }

func (e internalError) Error() string { return e.err.Error() }
func (e internalError) Unwrap() error { return e.err }

// errStatus maps a run error to its HTTP status: 429 for shed requests,
// 503 for expired deadlines (counted via the admission metrics — this is
// the one place that sees deadlines from both the queue wait and the
// coalesced-computation wait), 500 for server faults, 400 for bad input.
func (s *server) errStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		s.admit.MarkDeadline()
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		// The client went away; 503 is what a proxy retry wants to see.
		return http.StatusServiceUnavailable
	default:
		if _, ok := err.(internalError); ok {
			return http.StatusInternalServerError
		}
		return http.StatusBadRequest
	}
}

// validateServeForm bounds the request sizes so a stray request cannot
// wedge the server, and returns the validated platform.
func validateServeForm(form scheduleForm) (platform.Platform, error) {
	if form.N < 1 || form.N > 24 {
		return platform.Platform{}, fmt.Errorf("n must be in [1, 24], got %d", form.N)
	}
	if form.CPUs < 0 || form.CPUs > 64 || form.GPUs < 0 || form.GPUs > 16 {
		return platform.Platform{}, fmt.Errorf("platform out of range: %d CPUs, %d GPUs", form.CPUs, form.GPUs)
	}
	pl := platform.Platform{CPUs: form.CPUs, GPUs: form.GPUs}
	if err := pl.Validate(); err != nil {
		return platform.Platform{}, err
	}
	return pl, nil
}

// buildRun validates the form and generates its workload: the graph and
// platform a run of the request schedules.
func buildRun(form scheduleForm) (*dag.Graph, platform.Platform, error) {
	pl, err := validateServeForm(form)
	if err != nil {
		return nil, pl, err
	}
	g, err := buildServeWorkload(form.Workload, form.N)
	return g, pl, err
}

// requestKeyFor returns the canonical cache key of a request for graph g
// on pl under the given algorithm label. The instance content — not the
// form text — is what gets hashed, so the key survives cosmetic request
// differences and changes meaning the moment a generator produces
// different durations; the workload name and size ride along as
// parameters because they determine task identities (names, IDs) in the
// rendered output. Every request pays one build, a cache hit included,
// and a /schedule miss runs on that graph. The build is not noise: at
// the largest size served, LU N=24 (4,900 tasks), it takes ≈1.9 ms
// against ≈3.2 ms for HeteroPrio-min's call on 20+4 (2-vCPU host;
// EXPERIMENTS.md "Building a DAG").
func requestKeyFor(form scheduleForm, g *dag.Graph, pl platform.Platform, algLabel string) serve.Key {
	return serve.KeyOf(g.Tasks(), pl, algLabel, serveSeed,
		"workload="+form.Workload, "n="+strconv.Itoa(form.N))
}

// executeRun runs the algorithm on the request's graph g and platform pl
// with the server's live metrics observer, records the run summary and
// returns the schedule. The run writes priorities into g. The context
// carries the request deadline: a request that expired while queued or
// coalesced never reaches the simulator.
func (s *server) executeRun(ctx context.Context, form scheduleForm, g *dag.Graph, pl platform.Platform) (*sim.Schedule, obs.RunSummary, error) {
	var zero obs.RunSummary
	if err := ctx.Err(); err != nil {
		return nil, zero, err
	}
	// The compute span covers simulation + validation + bound + summary;
	// its annotations carry the simulated task/spoliation/makespan
	// quantities of this very run, read from the run summary.
	csp := obs.SpanFromContext(ctx).StartChild("compute")
	defer csp.End()
	csp.Annotate("alg", form.Alg)
	csp.Annotate("workload", form.Workload)
	start := time.Now()
	sched, err := expr.RunDAGObserved(form.Alg, g, pl, s.sched.Run())
	if err != nil {
		return nil, zero, err
	}
	if err := sched.Validate(g.Tasks(), g); err != nil {
		return nil, zero, internalError{fmt.Errorf("schedule validation failed: %w", err)}
	}
	lower, err := bounds.DAGLowerRefined(g, pl)
	if err != nil {
		return nil, zero, internalError{err}
	}
	sum := obs.Summarize(sched, g.Tasks(), lower)
	sum.ID = fmt.Sprintf("run-%06d", s.runSeq.Add(1))
	sum.When = time.Now()
	sum.Workload = form.Workload
	sum.Alg = form.Alg
	sum.N = form.N
	sum.Elapsed = float64(time.Since(start).Microseconds()) / 1000
	s.recordRun(sum)
	csp.AnnotateInt("sim_tasks_queued", int64(sum.Tasks))
	csp.AnnotateInt("sim_tasks_completed", int64(sum.Tasks))
	csp.AnnotateInt("sim_spoliations", int64(sum.Spoliations))
	csp.AnnotateInt("sim_wasted_ms", int64(sum.WastedWork+0.5))
	csp.AnnotateInt("sim_makespan_ms", int64(sum.Makespan+0.5))
	return sched, sum, nil
}

// recordRun feeds the run-level metrics, the /runs ring and the run log.
func (s *server) recordRun(sum obs.RunSummary) {
	s.runs.Add(sum)
	s.runMakespan.Observe(sum.Makespan)
	if sum.Ratio > 0 {
		s.runRatio.Observe(sum.Ratio)
	}
	s.runsTotal.With(sum.Alg).Inc()
	s.log.Info("run complete",
		"id", sum.ID, "workload", sum.Workload, "alg", sum.Alg, "n", sum.N,
		"cpus", sum.CPUs, "gpus", sum.GPUs, "tasks", sum.Tasks,
		"makespan_ms", sum.Makespan, "ratio", sum.Ratio,
		"spoliations", sum.Spoliations, "wasted_ms", sum.WastedWork,
		"elapsed_ms", sum.Elapsed)
}

// runSchedule serves one schedule request through the front end: cache
// lookup (with coalescing) first, then admission, then the simulation as
// a single pool cell. Cache hits touch neither the admission valve nor
// the pool, so a repeated request is pure memory traffic.
func (s *server) runSchedule(ctx context.Context, form scheduleForm) (*scheduleResult, error) {
	g, pl, err := buildRun(form)
	if err != nil {
		return nil, err
	}
	key := requestKeyFor(form, g, pl, "schedule:"+form.Alg)
	res, _, err := s.schedCache.DoCtx(ctx, key, func(ctx context.Context) (*scheduleResult, error) {
		release, err := s.admit.Acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		return engine.One(ctx, s.pool, func(ctx context.Context) (*scheduleResult, error) {
			sched, sum, err := s.executeRun(ctx, form, g, pl)
			if err != nil {
				return nil, err
			}
			return &scheduleResult{RunSummary: sum, SVG: template.HTML(trace.SVG(sched, 1100))}, nil
		})
	})
	return res, err
}

// runCompare fans every DAG algorithm out on the shared pool, behind the
// same cache/admission front end as runSchedule. The key ignores
// form.Alg (every algorithm runs) but pins the algorithm list, so adding
// an algorithm invalidates old rows. MaxParallel caps one request at
// half the pool, so a single /compare cannot starve concurrent requests;
// Map's ordered reduction keeps the table rows in DAGAlgorithms order
// regardless of completion order. Each cell builds its own graph, since
// a run writes priorities into the graph it schedules.
func (s *server) runCompare(ctx context.Context, form scheduleForm) ([]obs.RunSummary, error) {
	if form.N < 1 || form.N > 16 {
		return nil, fmt.Errorf("compare limits n to [1, 16], got %d", form.N)
	}
	algs := expr.DAGAlgorithms()
	g, pl, err := buildRun(form)
	if err != nil {
		return nil, err
	}
	key := requestKeyFor(form, g, pl, "compare:"+strings.Join(algs, ","))
	rows, _, err := s.compareCache.DoCtx(ctx, key, func(ctx context.Context) ([]obs.RunSummary, error) {
		release, err := s.admit.Acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		perRequest := (s.pool.Width() + 1) / 2
		if perRequest < 1 {
			perRequest = 1
		}
		return engine.Map(ctx, s.pool,
			engine.Job{Cells: len(algs), MaxParallel: perRequest},
			func(ctx context.Context, c engine.Cell) (obs.RunSummary, error) {
				f := form
				f.Alg = algs[c.Index]
				g, err := buildServeWorkload(f.Workload, f.N)
				if err != nil {
					return obs.RunSummary{}, err
				}
				_, sum, err := s.executeRun(ctx, f, g, pl)
				return sum, err
			})
	})
	return rows, err
}

// render executes the page template into a buffer first, so template
// failures surface as a clean 500 instead of a half-written page. A
// traced request gets a "render" span covering template execution and
// the response write.
func (s *server) render(r *http.Request, w http.ResponseWriter, vm viewModel, status int) {
	rsp := obs.SpanFromContext(r.Context()).StartChild("render")
	defer rsp.End()
	var buf bytes.Buffer
	if err := s.page.Execute(&buf, vm); err != nil {
		s.log.Error("template render failed", "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(status)
	_, _ = buf.WriteTo(w)
}

// jsonError writes an error payload with the right status and type.
func jsonError(w http.ResponseWriter, err error, status int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// formInt reads an integer form field: an empty value keeps def, any
// other non-integer is an error naming the field.
func formInt(r *http.Request, field string, def int) (int, error) {
	v := r.FormValue(field)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def, fmt.Errorf("%s must be an integer, got %q", field, v)
	}
	return n, nil
}

func buildServeWorkload(name string, n int) (*dag.Graph, error) {
	switch name {
	case "cholesky", "qr", "lu":
		return workloads.Build(workloads.Factorization(name), n)
	case "wavefront":
		return workloads.DefaultWavefront(n), nil
	case "chains":
		even := platform.Task{CPUTime: 10, GPUTime: 1}
		odd := platform.Task{CPUTime: 2, GPUTime: 3}
		return workloads.BagOfChains(n, 10, even, odd), nil
	case "uniform":
		rng := rand.New(rand.NewSource(1))
		in := workloads.UniformInstance(n*10, 1, 100, 0.2, 40, rng)
		return dag.FromInstance(in), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

const pageHTML = `<!DOCTYPE html>
<html>
<head>
<title>HeteroPrio schedule explorer</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 1200px; }
fieldset { display: inline-block; border: 1px solid #ccc; padding: 0.8em 1.2em; }
label { margin-right: 1em; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #ccc; padding: 0.3em 0.8em; text-align: right; }
.error { color: #b00; font-weight: bold; }
nav { margin-bottom: 1em; font-size: 0.9em; }
</style>
</head>
<body>
<h1>HeteroPrio schedule explorer</h1>
<p>Affinity-based list scheduling with spoliation on a simulated CPU+GPU
node (Beaumont, Eyraud-Dubois, Kumar — IPDPS 2017).</p>
<nav>observability: <a href="/metrics">/metrics</a> ·
<a href="/runs">/runs</a> ·
<a href="/debug/pprof/">/debug/pprof</a></nav>
<form action="/schedule" method="get">
<fieldset>
<label>workload
<select name="workload">
{{range .Workloads}}<option value="{{.}}" {{if eq . $.Form.Workload}}selected{{end}}>{{.}}</option>{{end}}
</select></label>
<label>N <input type="number" name="n" value="{{.Form.N}}" min="1" max="24" size="4"></label>
<label>CPUs <input type="number" name="cpus" value="{{.Form.CPUs}}" min="0" max="64" size="4"></label>
<label>GPUs <input type="number" name="gpus" value="{{.Form.GPUs}}" min="0" max="16" size="4"></label>
<label>algorithm
<select name="alg">
{{range .Algorithms}}<option value="{{.}}" {{if eq . $.Form.Alg}}selected{{end}}>{{.}}</option>{{end}}
</select></label>
<button type="submit">schedule</button>
<button type="submit" formaction="/compare">compare all</button>
</fieldset>
</form>
{{if .Error}}<p class="error">{{.Error}}</p>{{end}}
{{if .Compare}}
<table>
<tr><th>algorithm</th><th>makespan (ms)</th><th>ratio</th><th>spoliations</th>
<th>wasted (ms)</th><th>CPU equiv. accel</th><th>GPU equiv. accel</th></tr>
{{range .Compare}}
<tr><td style="text-align:left">{{.Alg}}</td><td>{{printf "%.2f" .Makespan}}</td>
<td>{{printf "%.3f" .Ratio}}</td><td>{{.Spoliations}}</td>
<td>{{printf "%.2f" .WastedWork}}</td>
<td>{{printf "%.2f" .CPUEquivAccel}}</td><td>{{printf "%.2f" .GPUEquivAccel}}</td></tr>
{{end}}
</table>
{{end}}
{{with .Result}}
<table>
<tr><th>run</th><th>tasks</th><th>makespan (ms)</th><th>lower bound (ms)</th><th>ratio</th>
<th>spoliations</th><th>wasted (ms)</th><th>CPU equiv. accel</th><th>GPU equiv. accel</th></tr>
<tr><td>{{.ID}}</td><td>{{.Tasks}}</td><td>{{printf "%.2f" .Makespan}}</td><td>{{printf "%.2f" .LowerBound}}</td>
<td>{{printf "%.3f" .Ratio}}</td><td>{{.Spoliations}}</td><td>{{printf "%.2f" .WastedWork}}</td>
<td>{{printf "%.2f" .CPUEquivAccel}}</td><td>{{printf "%.2f" .GPUEquivAccel}}</td></tr>
</table>
{{.SVG}}
{{end}}
</body>
</html>`
