package load

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestBuildPlanDeterministic(t *testing.T) {
	cfg := PlanConfig{Requests: 200, Rate: 500, Seed: 42}
	a, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("same seed, different hashes: %s vs %s", a.Hash, b.Hash)
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
	c, err := BuildPlan(PlanConfig{Requests: 200, Rate: 500, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash == a.Hash {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestBuildPlanShape(t *testing.T) {
	plan, err := BuildPlan(PlanConfig{Requests: 300, Rate: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for _, r := range plan.Requests {
		if r.Offset < last {
			t.Fatalf("offsets not monotone at %d: %v < %v", r.Index, r.Offset, last)
		}
		last = r.Offset
		switch r.Kind {
		case KindSchedule:
			if r.Alg == "" || !strings.Contains(r.Query, "alg=") {
				t.Fatalf("schedule request missing alg: %+v", r)
			}
		case KindCompare:
			if r.Alg != "" {
				t.Fatalf("compare request carries alg: %+v", r)
			}
		default:
			t.Fatalf("unknown kind %q", r.Kind)
		}
		if r.N < planNMin || r.N > planNMax {
			t.Fatalf("n out of range: %+v", r)
		}
	}
	// With the default 9:1 mix over 300 draws both kinds must appear, and
	// schedule must dominate.
	if plan.MixCounts[KindSchedule] <= plan.MixCounts[KindCompare] || plan.MixCounts[KindCompare] == 0 {
		t.Fatalf("mix counts implausible for 9:1: %v", plan.MixCounts)
	}
	if plan.MixCounts[KindSchedule]+plan.MixCounts[KindCompare] != 300 {
		t.Fatalf("mix counts don't sum: %v", plan.MixCounts)
	}
	// Mean gap should be near 1ms (rate 1000/s): accept a generous band.
	mean := plan.Requests[len(plan.Requests)-1].Offset / time.Duration(len(plan.Requests))
	if mean < 300*time.Microsecond || mean > 3*time.Millisecond {
		t.Fatalf("mean inter-arrival %v far from 1ms", mean)
	}
}

func TestBuildPlanErrors(t *testing.T) {
	if _, err := BuildPlan(PlanConfig{Requests: 0, Rate: 10}); err == nil {
		t.Error("zero requests accepted")
	}
	if _, err := BuildPlan(PlanConfig{Requests: 10, Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := BuildPlan(PlanConfig{Requests: 10, Rate: rate}); err == nil {
			t.Errorf("rate %g accepted", rate)
		}
	}
	// At 1e-300 requests/s the first gap, about 1e309 ns, overflows float64
	// to +Inf. At 1e-9 each gap, about 1e18 ns, fits in a Duration, but
	// their running sum passes its 9.2e18 ns within 100 requests.
	for _, rate := range []float64{1e-300, 1e-9} {
		if _, err := BuildPlan(PlanConfig{Requests: 100, Rate: rate}); err == nil {
			t.Errorf("rate %g: offsets past time.Duration's range accepted", rate)
		}
	}
}

// stubServer mimics hpserve's surface closely enough to exercise the
// executor: JSON bodies, X-Trace-Id headers, a resolvable /trace/{id},
// cache counters on /metrics, and a deterministic shed on one request.
func stubServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var reqs atomic.Int64
	var hits atomic.Int64
	mux := http.NewServeMux()
	handler := func(w http.ResponseWriter, r *http.Request) {
		n := reqs.Add(1)
		w.Header().Set("X-Trace-Id", fmt.Sprintf("%016x", n))
		if n == 3 { // one deterministic shed
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true}`)
	}
	mux.HandleFunc("/schedule", handler)
	mux.HandleFunc("/compare", handler)
	mux.HandleFunc("/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		tree := map[string]any{
			"trace_id": r.PathValue("id"),
			"spans": []map[string]any{{
				"name": "req", "start_us": 0, "duration_us": 900, "self_us": 100,
				"children": []map[string]any{
					{"name": "admission", "start_us": 0, "duration_us": 100},
					{"name": "cache", "start_us": 100, "duration_us": 700,
						"children": []map[string]any{
							{"name": "compute", "start_us": 150, "duration_us": 600},
						}},
					{"name": "render", "start_us": 800, "duration_us": 100},
				},
			}},
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(tree)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hp_cache_hits_total %d\nhp_cache_misses_total 2\n", hits.Load())
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &reqs
}

func TestRunAgainstStub(t *testing.T) {
	srv, reqs := stubServer(t)
	cfg := Config{
		BaseURL:     srv.URL,
		Plan:        PlanConfig{Requests: 20, Rate: 2000, Seed: 1},
		Concurrency: 4,
		TraceSample: 2,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 20 planned requests plus 2 metrics scrapes plus sampled trace reads.
	if got := reqs.Load(); got < 20 {
		t.Fatalf("stub saw %d requests", got)
	}
	if rep.Status.OK != 19 || rep.Status.Shed != 1 {
		t.Fatalf("status %+v", rep.Status)
	}
	if rep.ShedRate != 1.0/20 {
		t.Fatalf("shed rate %g", rep.ShedRate)
	}
	if rep.HitRate <= 0 || rep.HitRate > 1 {
		t.Fatalf("hit rate %g", rep.HitRate)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P99 {
		t.Fatalf("latency stats not ordered: %+v", rep.Latency)
	}
	if rep.SampledTraces == 0 || len(rep.Phases) == 0 {
		t.Fatalf("no sampled phase breakdown: %+v", rep)
	}
	// Phases come back in canonical pipeline order.
	var names []string
	for _, p := range rep.Phases {
		names = append(names, p.Phase)
	}
	want := []string{"admission", "cache", "compute", "render"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("phase order %v, want %v", names, want)
	}
	if rep.Plan.Hash == "" || rep.Plan.MixCounts[KindSchedule] == 0 {
		t.Fatalf("plan summary incomplete: %+v", rep.Plan)
	}

	// Both renderings must carry the headline numbers.
	var text strings.Builder
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, wantStr := range []string{"hpload SLO report", "hash=" + rep.Plan.Hash, "shed=1", "admission"} {
		if !strings.Contains(text.String(), wantStr) {
			t.Errorf("text report missing %q:\n%s", wantStr, text.String())
		}
	}
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("JSON report round-trip: %v", err)
	}
	if back.Plan.Hash != rep.Plan.Hash || back.Status != rep.Status {
		t.Fatalf("JSON round-trip mismatch: %+v vs %+v", back, rep)
	}
}

// TestRunPlanIndependentOfConcurrency is the determinism contract the CI
// smoke job relies on: the plan section of the report is identical for a
// fixed seed no matter the concurrency cap.
func TestRunPlanIndependentOfConcurrency(t *testing.T) {
	srv, _ := stubServer(t)
	var hashes []string
	for _, conc := range []int{1, 4, 16} {
		rep, err := Run(context.Background(), Config{
			BaseURL:     srv.URL,
			Plan:        PlanConfig{Requests: 15, Rate: 3000, Seed: 99},
			Concurrency: conc,
		})
		if err != nil {
			t.Fatal(err)
		}
		planJSON, err := json.Marshal(rep.Plan)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, string(planJSON))
	}
	if hashes[0] != hashes[1] || hashes[1] != hashes[2] {
		t.Fatalf("plan summary varies with concurrency:\n%s\n%s\n%s", hashes[0], hashes[1], hashes[2])
	}
}

func TestRunCancelled(t *testing.T) {
	srv, _ := stubServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{
		BaseURL: srv.URL,
		Plan:    PlanConfig{Requests: 5, Rate: 10, Seed: 1},
	}); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{BaseURL: "", Plan: PlanConfig{Requests: 1, Rate: 1}}); err == nil {
		t.Fatal("empty base URL accepted")
	}
}
