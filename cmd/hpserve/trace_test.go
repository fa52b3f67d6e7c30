package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/obs"
)

// doGet performs a request and returns the recorder (header access).
func doGet(t *testing.T, srv http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func scheduleQuery(alg string) string {
	q := url.Values{
		"workload": {"cholesky"}, "n": {"6"}, "cpus": {"4"}, "gpus": {"2"},
		"alg": {alg},
	}
	return q.Encode()
}

// TestRequestTraceTree is the end-to-end explainability check of the
// acceptance criteria: a request's X-Trace-Id leads to /trace/{id}, whose
// span tree contains the admission, cache, compute, and render phases,
// and the tree's phase durations fit inside the root request latency.
func TestRequestTraceTree(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	rec := doGet(t, srv, "/schedule?"+scheduleQuery("HeteroPrio-min"))
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule status %d", rec.Code)
	}
	id := rec.Header().Get("X-Trace-Id")
	if len(id) != 16 {
		t.Fatalf("X-Trace-Id %q", id)
	}

	tr := doGet(t, srv, "/trace/"+id)
	if tr.Code != http.StatusOK {
		t.Fatalf("/trace/%s status %d: %s", id, tr.Code, tr.Body.String())
	}
	var tree obs.TraceTree
	if err := json.Unmarshal(tr.Body.Bytes(), &tree); err != nil {
		t.Fatalf("invalid trace tree JSON: %v", err)
	}
	if tree.TraceID != id || !tree.Finished || tree.DurationUS <= 0 {
		t.Fatalf("tree header: %+v", tree)
	}
	if len(tree.Spans) != 1 {
		t.Fatalf("want one root span, got %d", len(tree.Spans))
	}
	root := tree.Spans[0]
	if root.Name != "schedule" {
		t.Errorf("root span %q", root.Name)
	}

	// Collect phases and check tree timing invariants: every span fits
	// inside the root, and each parent's children fit inside it.
	phases := map[string]int64{}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		phases[n.Name] = n.DurationUS
		var childSum int64
		for _, c := range n.Children {
			if c.StartUS < n.StartUS || c.StartUS+c.DurationUS > n.StartUS+n.DurationUS+1000 {
				t.Errorf("span %s [%d,+%d] escapes parent %s [%d,+%d]",
					c.Name, c.StartUS, c.DurationUS, n.Name, n.StartUS, n.DurationUS)
			}
			childSum += c.DurationUS
			walk(c)
		}
		if n.SelfUS < 0 || n.SelfUS > n.DurationUS {
			t.Errorf("span %s self %d outside [0, %d]", n.Name, n.SelfUS, n.DurationUS)
		}
	}
	walk(root)
	for _, want := range []string{"admission", "cache", "compute", "render"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("trace tree missing phase %q (have %v)", want, phases)
		}
	}
	// Phase durations must be explainable against the request latency:
	// the sum of the root's direct children cannot exceed the root
	// (they are sequential phases of one request) — allow 1ms tolerance
	// for clock granularity.
	var direct int64
	for _, c := range root.Children {
		direct += c.DurationUS
	}
	if direct > root.DurationUS+1000 {
		t.Errorf("direct phases sum %dus > request %dus", direct, root.DurationUS)
	}
	// The compute span carries the bridged scheduler quantities.
	var computeAnn map[string]any
	walkAnn := func(n *obs.SpanNode) {
		if n.Name == "compute" {
			computeAnn = n.Annotations
		}
	}
	tree.Walk(walkAnn)
	for _, key := range []string{"sim_tasks_completed", "sim_makespan_ms", "alg"} {
		if _, ok := computeAnn[key]; !ok {
			t.Errorf("compute span missing annotation %q (have %v)", key, computeAnn)
		}
	}

	// A /compare request runs algorithms that emit no observer events;
	// their compute spans carry the same quantities all the same.
	rec = doGet(t, srv, "/compare?"+scheduleQuery("HeteroPrio-min"))
	if rec.Code != http.StatusOK {
		t.Fatalf("compare status %d", rec.Code)
	}
	tr = doGet(t, srv, "/trace/"+rec.Header().Get("X-Trace-Id"))
	var cmpTree obs.TraceTree
	if err := json.Unmarshal(tr.Body.Bytes(), &cmpTree); err != nil {
		t.Fatalf("invalid compare trace tree JSON: %v", err)
	}
	var dualAnn map[string]any
	cmpTree.Walk(func(n *obs.SpanNode) {
		if n.Name == "compute" && n.Annotations["alg"] == "DualHP-min" {
			dualAnn = n.Annotations
		}
	})
	g, err := buildServeWorkload("cholesky", 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := dualAnn["sim_tasks_completed"]; got != float64(g.Len()) {
		t.Errorf("DualHP-min compute span: sim_tasks_completed = %v, want the graph's %d tasks (all: %v)", got, g.Len(), dualAnn)
	}
}

// TestTraceTreeCacheOutcomes checks the cache span's outcome annotation
// flips from miss to hit across identical requests.
func TestTraceTreeCacheOutcomes(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	outcome := func() string {
		rec := doGet(t, srv, "/schedule?"+scheduleQuery("HeteroPrio-min"))
		if rec.Code != http.StatusOK {
			t.Fatalf("schedule status %d", rec.Code)
		}
		tr := doGet(t, srv, "/trace/"+rec.Header().Get("X-Trace-Id"))
		var tree obs.TraceTree
		if err := json.Unmarshal(tr.Body.Bytes(), &tree); err != nil {
			t.Fatal(err)
		}
		out := ""
		tree.Walk(func(n *obs.SpanNode) {
			if n.Name == "cache" {
				out, _ = n.Annotations["outcome"].(string)
			}
		})
		return out
	}
	if got := outcome(); got != "miss" {
		t.Errorf("first request cache outcome %q, want miss", got)
	}
	if got := outcome(); got != "hit" {
		t.Errorf("second request cache outcome %q, want hit", got)
	}
}

// TestTracesListing checks /traces lists finished traces slowest-first
// and honors the limit parameter.
func TestTracesListing(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	for _, alg := range []string{"HeteroPrio-min", "HEFT-avg", "DualHP-fifo"} {
		if rec := doGet(t, srv, "/schedule?"+scheduleQuery(alg)); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", alg, rec.Code)
		}
	}
	rec := doGet(t, srv, "/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("/traces status %d", rec.Code)
	}
	var payload struct {
		Traces []traceListEntry `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Traces) != 3 {
		t.Fatalf("listed %d traces, want 3", len(payload.Traces))
	}
	for i := 1; i < len(payload.Traces); i++ {
		if payload.Traces[i].DurationUS > payload.Traces[i-1].DurationUS {
			t.Errorf("traces not slowest-first at %d: %v", i, payload.Traces)
		}
	}
	for _, row := range payload.Traces {
		if row.Name != "schedule" || !row.Finished || row.Spans < 3 {
			t.Errorf("trace row %+v", row)
		}
	}
	rec = doGet(t, srv, "/traces?limit=1")
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Traces) != 1 {
		t.Errorf("limit=1 returned %d traces", len(payload.Traces))
	}
	if rec := doGet(t, srv, "/traces?limit=x"); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "limit must be an integer") {
		t.Errorf("limit=x: status %d, body %s", rec.Code, rec.Body.String())
	}
}

func TestTraceTreeErrors(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	if rec := doGet(t, srv, "/trace/zzzz"); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed id: status %d", rec.Code)
	}
	if rec := doGet(t, srv, "/trace/00000000000000ff"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown id: status %d", rec.Code)
	}
}

// TestMetricsExemplarLinksTrace follows the acceptance path from the
// exposition side: the request-latency HDR family must carry a bucket
// exemplar whose trace ID resolves at /trace/{id}.
func TestMetricsExemplarLinksTrace(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	if rec := doGet(t, srv, "/schedule?"+scheduleQuery("HeteroPrio-min")); rec.Code != http.StatusOK {
		t.Fatalf("schedule status %d", rec.Code)
	}
	body := doGet(t, srv, "/metrics").Body.String()
	var exemplar string
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "hp_latency_request_us_bucket{handler=\"schedule\"") {
			continue
		}
		if i := strings.Index(line, `trace_id="`); i >= 0 {
			exemplar = line[i+len(`trace_id="`) : i+len(`trace_id="`)+16]
			break
		}
	}
	if exemplar == "" {
		t.Fatalf("no exemplar on hp_latency_request_us buckets:\n%s", body)
	}
	if rec := doGet(t, srv, "/trace/"+exemplar); rec.Code != http.StatusOK {
		t.Errorf("exemplar trace %s not resolvable: status %d", exemplar, rec.Code)
	}
}
