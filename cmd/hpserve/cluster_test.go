package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

func canonicalConfig() serveConfig {
	cfg := defaultServeConfig()
	cfg.canonical = true
	return cfg
}

func newTestCluster(t *testing.T, replicas int) *cluster {
	t.Helper()
	c, err := newCluster(obs.NewLogger(io.Discard, false), replicas, 1024,
		routerConfig{vnodes: 32, cooldown: time.Second, traceEntries: 64}, canonicalConfig())
	if err != nil {
		t.Fatalf("newCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func httpGet(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// startRouterListener serves the cluster's router on a loopback listener
// and returns its base URL (tests that need response headers go through
// a real connection).
func startRouterListener(t *testing.T, c *cluster) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: c.router, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return "http://" + ln.Addr().String()
}

// TestClusterShardedDeterminism is the in-process version of the CI
// sharded-determinism job: the same canonical request set answered by a
// 1-replica and a 3-replica cluster must produce byte-identical JSON
// bodies per key.
func TestClusterShardedDeterminism(t *testing.T) {
	one := newTestCluster(t, 1)
	three := newTestCluster(t, 3)
	paths := []string{
		"/schedule?workload=cholesky&n=4&cpus=4&gpus=1&alg=HeteroPrio-min&format=json",
		"/schedule?workload=wavefront&n=6&cpus=2&gpus=2&alg=HEFT-min&format=json",
		"/schedule?workload=chains&n=5&cpus=3&gpus=1&alg=DualHP-min&format=json",
		"/compare?workload=qr&n=3&cpus=4&gpus=1&format=json",
	}
	for _, p := range paths {
		c1, b1 := get(t, one.router, p)
		c3, b3 := get(t, three.router, p)
		if c1 != http.StatusOK || c3 != http.StatusOK {
			t.Fatalf("%s: status %d vs %d (%s / %s)", p, c1, c3, b1, b3)
		}
		if b1 != b3 {
			t.Fatalf("%s: 1-replica and 3-replica bodies differ:\n--- k=1\n%s\n--- k=3\n%s", p, b1, b3)
		}
		if strings.Contains(b1, `"id"`) || strings.Contains(b1, `"elapsed_ms"`) {
			t.Fatalf("%s: canonical body still carries volatile fields: %s", p, b1)
		}
	}
}

// TestClusterL2CrossReplicaHit drives the same request into two replicas
// directly (bypassing the router's affinity): the first computes and
// fills the shared L2, the second must answer byte-identically from it
// without recomputing.
func TestClusterL2CrossReplicaHit(t *testing.T) {
	c := newTestCluster(t, 2)
	const p = "/schedule?workload=lu&n=4&cpus=4&gpus=1&alg=HeteroPrio-avg&format=json"

	code, body1, _ := httpGet(t, c.urls[0]+p)
	if code != http.StatusOK {
		t.Fatalf("replica 0: status %d: %s", code, body1)
	}
	code, body2, _ := httpGet(t, c.urls[1]+p)
	if code != http.StatusOK {
		t.Fatalf("replica 1: status %d: %s", code, body2)
	}
	if body1 != body2 {
		t.Fatalf("L2-served body differs from computed body:\n--- computed\n%s\n--- via L2\n%s", body1, body2)
	}
	// Replica 1 must report an L2 hit and no second compute: exactly one
	// run of this algorithm happened across the cluster.
	_, metrics1, _ := httpGet(t, c.urls[1]+"/metrics")
	exp, err := obs.ParseExposition(metrics1)
	if err != nil {
		t.Fatalf("parse replica metrics: %v", err)
	}
	if got := exp.Value(shard.MetricL2Hits); got != 1 {
		t.Fatalf("replica 1 %s = %v, want 1\n%s", shard.MetricL2Hits, got, metrics1)
	}
	runs := 0.0
	for _, u := range c.urls {
		_, m, _ := httpGet(t, u+"/metrics")
		e, err := obs.ParseExposition(m)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		runs += e.Value("hp_runs_total")
	}
	if runs != 1 {
		t.Fatalf("cluster ran the schedule %v times, want 1", runs)
	}
}

// TestClusterRouterAffinity checks that repeated identical requests stay
// on one replica (L1 territory) while distinct keys spread out.
func TestClusterRouterAffinity(t *testing.T) {
	c := newTestCluster(t, 3)
	base := startRouterListener(t, c)
	seen := map[string]bool{}
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/schedule?workload=wavefront&n=%d&cpus=2&gpus=1&alg=HEFT-min&format=json", 3+i)
		resp, err := http.Get(base + p)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		rep := resp.Header.Get("X-Shard-Replica")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if rep == "" {
			t.Fatalf("missing X-Shard-Replica")
		}
		seen[rep] = true
		// Same key re-requested: same replica.
		resp2, err := http.Get(base + p)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		io.Copy(io.Discard, resp2.Body)
		resp2.Body.Close()
		if rep2 := resp2.Header.Get("X-Shard-Replica"); rep2 != rep {
			t.Fatalf("key moved replicas: %s then %s", rep, rep2)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("12 distinct keys all routed to %d replica(s)", len(seen))
	}
}

// TestClusterMergedMetrics checks the router's /metrics aggregates every
// replica: per-replica request counters sum, and the shared L2 entry
// gauge appears exactly once.
func TestClusterMergedMetrics(t *testing.T) {
	c := newTestCluster(t, 3)
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/schedule?workload=chains&n=%d&cpus=2&gpus=1&alg=DualHP-min&format=json", 2+i)
		if code, body := get(t, c.router, p); code != http.StatusOK {
			t.Fatalf("%s: %d %s", p, code, body)
		}
	}
	code, body := get(t, c.router, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("merged /metrics status %d", code)
	}
	exp, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("merged /metrics does not parse: %v", err)
	}
	if got := exp.Value("hp_http_requests_total"); got < 6 {
		t.Fatalf("merged hp_http_requests_total = %v, want >= 6", got)
	}
	if got := exp.Value(shard.MetricShardRequests); got != 6 {
		t.Fatalf("merged %s = %v, want 6", shard.MetricShardRequests, got)
	}
	if got := exp.Value(shard.MetricL2Entries); got != 6 {
		t.Fatalf("merged %s = %v, want 6 (one fill per distinct key, counted once)", shard.MetricL2Entries, got)
	}
	if got := exp.Value("hp_runs_total"); got != 6 {
		t.Fatalf("merged hp_runs_total = %v, want 6", got)
	}
}

// TestRouterKeyMatchesServer pins the router's placement key to the
// replica's cache key for the same request.
func TestRouterKeyMatchesServer(t *testing.T) {
	req, _ := http.NewRequest(http.MethodGet, "/schedule?workload=cholesky&n=4&cpus=4&gpus=1&alg=HEFT", nil)
	kr, err := routerKey(req)
	if err != nil {
		t.Fatalf("routerKey: %v", err)
	}
	form, err := parseForm(req)
	if err != nil {
		t.Fatalf("parseForm: %v", err)
	}
	ks, err := requestKeyFor(form, "schedule:"+form.Alg)
	if err != nil {
		t.Fatalf("requestKeyFor: %v", err)
	}
	if kr != ks {
		t.Fatalf("router and server disagree on the request key")
	}
	if _, err := routerKey(mustRequest(t, "/runs")); err == nil {
		t.Fatalf("routerKey accepted an unkeyed path")
	}
	if _, err := routerKey(mustRequest(t, "/schedule?workload=nope&n=4&cpus=1&gpus=1")); err == nil {
		t.Fatalf("routerKey accepted an invalid workload")
	}
}

func mustRequest(t *testing.T, path string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}
