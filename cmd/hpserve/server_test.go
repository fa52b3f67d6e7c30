package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/obs"
)

func get(t *testing.T, srv http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

func TestIndexPage(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	code, body := get(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"HeteroPrio schedule explorer", "cholesky", "HeteroPrio-min", "/metrics"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestNotFound(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	if code, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("status %d, want 404", code)
	}
}

func TestScheduleEndpoint(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	q := url.Values{
		"workload": {"cholesky"}, "n": {"6"}, "cpus": {"4"}, "gpus": {"2"},
		"alg": {"HeteroPrio-min"},
	}
	code, body := get(t, srv, "/schedule?"+q.Encode())
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"<svg", "makespan", "spoliations", "run-000001"} {
		if !strings.Contains(body, want) {
			t.Errorf("schedule page missing %q", want)
		}
	}
}

func TestScheduleEndpointAllWorkloads(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	for _, wl := range []string{"qr", "lu", "wavefront", "chains", "uniform"} {
		q := url.Values{"workload": {wl}, "n": {"4"}, "cpus": {"4"}, "gpus": {"1"}, "alg": {"HEFT-avg"}}
		code, body := get(t, srv, "/schedule?"+q.Encode())
		if code != http.StatusOK || !strings.Contains(body, "<svg") {
			t.Errorf("%s: status %d, svg present %v", wl, code, strings.Contains(body, "<svg"))
		}
	}
}

// Input errors must come back as 400 with the message surfaced in the
// page, not as a 200 that only looks like an error.
func TestScheduleEndpointErrors(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	cases := []struct {
		q    url.Values
		want string // in the surfaced message, when set
	}{
		{q: url.Values{"workload": {"nope"}, "n": {"4"}, "cpus": {"2"}, "gpus": {"1"}, "alg": {"HeteroPrio-min"}}},
		{q: url.Values{"workload": {"cholesky"}, "n": {"999"}, "cpus": {"2"}, "gpus": {"1"}, "alg": {"HeteroPrio-min"}}},
		{q: url.Values{"workload": {"cholesky"}, "n": {"4"}, "cpus": {"0"}, "gpus": {"0"}, "alg": {"HeteroPrio-min"}}},
		{q: url.Values{"workload": {"cholesky"}, "n": {"4"}, "cpus": {"2"}, "gpus": {"1"}, "alg": {"bogus"}}},
		// A malformed integer is an error, not a silent default.
		{q: url.Values{"workload": {"cholesky"}, "n": {"abc"}, "cpus": {"4"}, "gpus": {"2"}}, want: "n must be an integer"},
		{q: url.Values{"workload": {"cholesky"}, "n": {"4"}, "cpus": {"4x"}, "gpus": {"2"}}, want: "cpus must be an integer"},
		{q: url.Values{"workload": {"cholesky"}, "n": {"4"}, "cpus": {"4"}, "gpus": {"1.5"}}, want: "gpus must be an integer"},
	}
	for i, c := range cases {
		code, body := get(t, srv, "/schedule?"+c.q.Encode())
		if code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
		if !strings.Contains(body, "class=\"error\"") || !strings.Contains(body, c.want) {
			t.Errorf("case %d: error %q not surfaced", i, c.want)
		}
	}
	// The JSON form names the field too, and an empty value keeps the
	// default.
	code, body := get(t, srv, "/schedule?workload=cholesky&n=abc&cpus=4&gpus=2&format=json")
	if code != http.StatusBadRequest || !strings.Contains(body, "n must be an integer") {
		t.Errorf("n=abc as JSON: status %d, body %s", code, body)
	}
	code, body = get(t, srv, "/schedule?workload=cholesky&n=&cpus=4&gpus=2&format=json")
	if code != http.StatusOK || !strings.Contains(body, `"n": 8`) {
		t.Errorf("empty n: status %d, want 200 with the default n=8; body %s", code, body)
	}
}

func TestCompareEndpoint(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	q := url.Values{"workload": {"cholesky"}, "n": {"5"}, "cpus": {"4"}, "gpus": {"2"}}
	code, body := get(t, srv, "/compare?"+q.Encode())
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"HeteroPrio-min", "DualHP-fifo", "HEFT-avg"} {
		if !strings.Contains(body, want) {
			t.Errorf("compare missing %q", want)
		}
	}
}

func TestCompareEndpointLimits(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	q := url.Values{"workload": {"cholesky"}, "n": {"99"}, "cpus": {"4"}, "gpus": {"2"}}
	code, body := get(t, srv, "/compare?"+q.Encode())
	if code != http.StatusBadRequest {
		t.Errorf("status %d, want 400", code)
	}
	if !strings.Contains(body, "class=\"error\"") {
		t.Error("oversized n not rejected")
	}
}

// TestMetricsEndpoint checks the Prometheus exposition carries the
// scheduler series after a run, and the HTTP series for every handler
// even before it has been hit.
func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	q := url.Values{
		"workload": {"cholesky"}, "n": {"6"}, "cpus": {"4"}, "gpus": {"2"},
		"alg": {"HeteroPrio-min"},
	}
	if code, _ := get(t, srv, "/schedule?"+q.Encode()); code != http.StatusOK {
		t.Fatalf("schedule failed")
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	// The Prometheus text exposition type, exactly: scrapers key their
	// parser off the version parameter.
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q, want the Prometheus text exposition type", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"hp_tasks_completed_total",
		"hp_tasks_queued_total",
		"hp_spoliations_total",
		"hp_queue_depth",
		"hp_run_makespan_bucket{le=",
		"hp_run_makespan_count 1",
		"hp_runs_total{alg=\"HeteroPrio-min\"} 1",
		"hp_http_requests_total{handler=\"schedule\"} 1",
		"hp_http_requests_total{handler=\"compare\"} 0",
		"hp_http_request_duration_seconds_bucket{handler=\"schedule\",le=",
		"hp_pool_workers",
		"hp_pool_cells_total",
		"hp_latency_request_us_count{handler=\"schedule\"} 1",
		"hp_latency_phase_us_bucket{phase=\"compute\",le=",
		"hp_trace_finished_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRunsEndpoint checks the JSON run ring: newest first, with the
// summary fields populated.
func TestRunsEndpoint(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	for _, alg := range []string{"HeteroPrio-min", "HEFT-avg"} {
		q := url.Values{"workload": {"cholesky"}, "n": {"5"}, "cpus": {"4"}, "gpus": {"2"}, "alg": {alg}}
		if code, _ := get(t, srv, "/schedule?"+q.Encode()); code != http.StatusOK {
			t.Fatalf("schedule %s failed", alg)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/runs", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var payload struct {
		Runs []obs.RunSummary `json:"runs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(payload.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(payload.Runs))
	}
	if payload.Runs[0].Alg != "HEFT-avg" || payload.Runs[1].Alg != "HeteroPrio-min" {
		t.Errorf("runs not newest-first: %s, %s", payload.Runs[0].Alg, payload.Runs[1].Alg)
	}
	for _, r := range payload.Runs {
		if r.Makespan <= 0 || r.Tasks == 0 || r.ID == "" {
			t.Errorf("incomplete summary: %+v", r)
		}
	}
}

// TestTraceEndpoint checks the live-bridged Perfetto export for both an
// observed scheduler (HeteroPrio) and a comparison scheduler that falls
// back to the post-hoc trace.
func TestTraceEndpoint(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	for _, alg := range []string{"HeteroPrio-min", "HEFT-avg"} {
		q := url.Values{"workload": {"cholesky"}, "n": {"5"}, "cpus": {"4"}, "gpus": {"2"}, "alg": {alg}}
		code, body := get(t, srv, "/trace?"+q.Encode())
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", alg, code)
		}
		var events []map[string]any
		if err := json.Unmarshal([]byte(body), &events); err != nil {
			t.Fatalf("%s: invalid trace JSON: %v", alg, err)
		}
		var complete int
		for _, e := range events {
			if e["ph"] == "X" {
				complete++
			}
		}
		if complete == 0 {
			t.Errorf("%s: no complete events in trace", alg)
		}
	}
	if code, body := get(t, srv, "/trace?workload=nope"); code != http.StatusBadRequest || !strings.Contains(body, "error") {
		t.Errorf("bad workload: status %d, body %q", code, body)
	}
}

// TestPprofEndpoints checks the profiling handlers are mounted.
func TestPprofEndpoints(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	if code, body := get(t, srv, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Errorf("pprof index: status %d", code)
	}
	if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", code)
	}
}
