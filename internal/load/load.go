// Package load is a deterministic open-loop load harness for hpserve.
//
// The harness separates *what* is sent from *how fast the target copes*:
// a seeded Plan fixes every request (arrival offset, endpoint, workload
// parameters) before the first byte is sent, so the same seed produces a
// byte-identical plan at any concurrency; the executor then replays the
// plan open-loop — requests are launched at their planned arrival times
// and latency is measured from the *planned* arrival, not from dispatch,
// so a saturated target shows its queueing delay instead of hiding it
// (the coordinated-omission trap of closed-loop harnesses).
//
// Per-request latency lands in an obs.HDRHistogram; a sampled subset of
// requests is resolved through the server's /trace/{id} endpoint to
// break the tail down by phase (admission, cache, compute, render). The
// result is an SLO Report renderable as text or JSON.
package load

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// MixEntry is one weighted request kind in the workload mix.
type MixEntry struct {
	Kind   string `json:"kind"`
	Weight int    `json:"weight"`
}

// Kinds the planner knows how to generate.
const (
	KindSchedule = "schedule"
	KindCompare  = "compare"
)

// DefaultMix is every plan's request mix, in draw order: it leans on
// the cheap endpoint, with a minority of expensive all-algorithm
// comparisons — roughly a dashboard's traffic shape.
func DefaultMix() []MixEntry {
	return []MixEntry{{Kind: KindSchedule, Weight: 9}, {Kind: KindCompare, Weight: 1}}
}

// PlanConfig seeds the deterministic request plan, whose request kinds
// are drawn from DefaultMix.
type PlanConfig struct {
	Requests int     `json:"requests"`
	Rate     float64 `json:"rate"` // mean arrivals per second (Poisson)
	Seed     int64   `json:"seed"`
}

// PlannedRequest is one fully-determined request: when it arrives and
// what it asks for. Query is the encoded parameter string (the target
// path is derived from Kind).
type PlannedRequest struct {
	Index    int           `json:"index"`
	Offset   time.Duration `json:"offset_ns"`
	Kind     string        `json:"kind"`
	Workload string        `json:"workload"`
	N        int           `json:"n"`
	Alg      string        `json:"alg,omitempty"`
	Query    string        `json:"query"`
}

// Plan is the precomputed request sequence plus its fingerprint. Two
// plans built from the same PlanConfig are identical — the executor's
// concurrency never feeds back into the plan.
type Plan struct {
	Config    PlanConfig     `json:"config"`
	Hash      string         `json:"hash"` // sha256 of the request sequence
	MixCounts map[string]int `json:"mix_counts"`
	Requests  []PlannedRequest
}

// The planner's closed parameter space: small enough that a few dozen
// requests revisit combinations (exercising the result cache), large
// enough that the mix is not trivial.
var (
	planWorkloads = []string{"cholesky", "qr", "lu", "wavefront", "chains"}
	planAlgs      = []string{"HeteroPrio-min", "HEFT-avg", "DualHP-fifo"}
	planNMin      = 4
	planNMax      = 7 // inclusive
)

// BuildPlan derives the full request sequence from the seed. All
// randomness is drawn sequentially from one source, so the plan is a
// pure function of PlanConfig.
func BuildPlan(cfg PlanConfig) (*Plan, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("load: requests must be positive, got %d", cfg.Requests)
	}
	if !(cfg.Rate > 0) || math.IsInf(cfg.Rate, 1) {
		return nil, fmt.Errorf("load: rate must be positive and finite, got %g", cfg.Rate)
	}
	mix := DefaultMix()
	total := 0
	for _, m := range mix {
		total += m.Weight
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	plan := &Plan{Config: cfg, MixCounts: map[string]int{}}
	h := sha256.New()
	var offset time.Duration
	for i := 0; i < cfg.Requests; i++ {
		// Poisson arrivals: exponential inter-arrival gaps at the mean rate.
		// A gap or offset past time.Duration's range would wrap.
		gap := rng.ExpFloat64() / cfg.Rate * float64(time.Second)
		if !(gap < math.MaxInt64) || offset+time.Duration(gap) < offset {
			return nil, fmt.Errorf("load: request %d's arrival offset overflows time.Duration at rate %g", i, cfg.Rate)
		}
		offset += time.Duration(gap)

		pick := rng.Intn(total)
		kind := mix[len(mix)-1].Kind
		for _, m := range mix {
			if pick < m.Weight {
				kind = m.Kind
				break
			}
			pick -= m.Weight
		}

		req := PlannedRequest{
			Index:    i,
			Offset:   offset,
			Kind:     kind,
			Workload: planWorkloads[rng.Intn(len(planWorkloads))],
			N:        planNMin + rng.Intn(planNMax-planNMin+1),
		}
		q := url.Values{
			"workload": {req.Workload},
			"n":        {strconv.Itoa(req.N)},
			"cpus":     {"4"},
			"gpus":     {"2"},
			"format":   {"json"},
		}
		if kind == KindSchedule {
			req.Alg = planAlgs[rng.Intn(len(planAlgs))]
			q.Set("alg", req.Alg)
		}
		req.Query = q.Encode()
		plan.Requests = append(plan.Requests, req)
		plan.MixCounts[kind]++
		fmt.Fprintf(h, "%d|%d|%s|%s\n", i, offset.Nanoseconds(), kind, req.Query)
	}
	plan.Hash = hex.EncodeToString(h.Sum(nil))[:16]
	return plan, nil
}

// Path returns the request path (with query) for a planned request.
func (r PlannedRequest) Path() string {
	return "/" + r.Kind + "?" + r.Query
}

// clientTimeout bounds each request of a load run, trace fetches and
// /metrics scrapes included.
const clientTimeout = 30 * time.Second

// Config drives one load run.
type Config struct {
	BaseURL     string
	Plan        PlanConfig
	Concurrency int // in-flight request cap (dispatch gate only)
	TraceSample int // resolve every Nth OK request's trace; 0 disables
}

// StatusCounts buckets request outcomes by the server's SLO-relevant
// status classes.
type StatusCounts struct {
	OK       int `json:"ok"`
	Shed     int `json:"shed"`     // 429: admission queue full
	Deadline int `json:"deadline"` // 503: per-request deadline expired
	Errors   int `json:"errors"`   // transport errors and other statuses
}

// LatencyStats summarises an HDR histogram in microseconds.
type LatencyStats struct {
	P50  int64 `json:"p50_us"`
	P99  int64 `json:"p99_us"`
	P999 int64 `json:"p999_us"`
	Max  int64 `json:"max_us"`
	Mean int64 `json:"mean_us"`
}

func latencyStats(h *obs.HDRHistogram) LatencyStats {
	return LatencyStats{
		P50:  h.Quantile(0.50),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
		Max:  h.Max(),
		Mean: int64(h.Mean() + 0.5),
	}
}

// PhaseStat is the per-phase latency breakdown from sampled traces.
type PhaseStat struct {
	Phase string `json:"phase"`
	Count int64  `json:"count"`
	P50   int64  `json:"p50_us"`
	P99   int64  `json:"p99_us"`
}

// PlanSummary is the deterministic part of the report: for a fixed seed
// it is identical at any concurrency (the CI smoke job diffs it).
type PlanSummary struct {
	Seed      int64          `json:"seed"`
	Requests  int            `json:"requests"`
	Rate      float64        `json:"rate"`
	Mix       []MixEntry     `json:"mix"`
	MixCounts map[string]int `json:"mix_counts"`
	Hash      string         `json:"hash"`
}

// Report is the SLO report for one run.
type Report struct {
	Target        string         `json:"target"`
	Concurrency   int            `json:"concurrency"`
	Plan          PlanSummary    `json:"plan"`
	ElapsedMS     float64        `json:"elapsed_ms"`
	AchievedRate  float64        `json:"achieved_rate"`
	Status        StatusCounts   `json:"status"`
	HitRate       float64        `json:"hit_rate"`  // Δ L1 hits / Δ lookups, from /metrics
	ShedRate      float64        `json:"shed_rate"` // shed / planned requests
	Latency       LatencyStats   `json:"latency"`
	Tiers         *TierBreakdown `json:"tiers,omitempty"` // cache deltas off the target
	Phases        []PhaseStat    `json:"phases"`
	SampledTraces int            `json:"sampled_traces"`
}

// Run builds the plan and replays it against cfg.BaseURL.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	plan, err := BuildPlan(cfg.Plan)
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, cfg, plan)
}

// RunPlan replays a prebuilt plan. The concurrency cap gates dispatch
// only: arrival times and latency zero-points come from the plan, so a
// small cap converts into visible queueing latency, never into a lighter
// plan.
func RunPlan(ctx context.Context, cfg Config, plan *Plan) (*Report, error) {
	base := strings.TrimSuffix(cfg.BaseURL, "/")
	if base == "" {
		return nil, fmt.Errorf("load: base URL required")
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 8
	}
	// One target host at up to `conc` in-flight requests: the default
	// transport's 2 idle connections per host would turn the harness
	// into a connection-churn benchmark. Size the idle pool to the
	// concurrency cap so the measured latency is the target's.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 2 * conc
	tr.MaxIdleConnsPerHost = conc
	client := &http.Client{Timeout: clientTimeout, Transport: tr}

	var (
		hist = obs.NewHDR()
		mu   sync.Mutex // guards status, phases, sampled
		st   StatusCounts
		// phases accumulates span durations from sampled traces, keyed by
		// span name.
		phases  = map[string]*obs.HDRHistogram{}
		sampled int
	)

	before := scrapeExposition(ctx, client, base)

	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for _, req := range plan.Requests {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Open loop: wait for the planned arrival, then launch. The
		// semaphore is acquired inside the worker so a saturated target
		// delays *dispatch*, and the delay is charged to the request.
		sleepUntil(ctx, start.Add(req.Offset))
		wg.Add(1)
		go func(req PlannedRequest, arrival time.Time) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			traceID, class := doRequest(ctx, client, base, req)
			lat := time.Since(arrival)
			hist.Record(lat.Microseconds())

			mu.Lock()
			switch class {
			case http.StatusOK:
				st.OK++
			case http.StatusTooManyRequests:
				st.Shed++
			case http.StatusServiceUnavailable:
				st.Deadline++
			default:
				st.Errors++
			}
			wantTrace := class == http.StatusOK && traceID != "" &&
				cfg.TraceSample > 0 && req.Index%cfg.TraceSample == 0
			mu.Unlock()

			if !wantTrace {
				return
			}
			tree, err := fetchTrace(ctx, client, base, traceID)
			if err != nil {
				return
			}
			mu.Lock()
			sampled++
			recordPhases(phases, tree)
			mu.Unlock()
		}(req, start.Add(req.Offset))
	}
	wg.Wait()
	elapsed := time.Since(start)

	after := scrapeExposition(ctx, client, base)

	rep := &Report{
		Target:      base,
		Concurrency: conc,
		Plan: PlanSummary{
			Seed:      plan.Config.Seed,
			Requests:  plan.Config.Requests,
			Rate:      plan.Config.Rate,
			Mix:       DefaultMix(),
			MixCounts: plan.MixCounts,
			Hash:      plan.Hash,
		},
		ElapsedMS:     float64(elapsed) / float64(time.Millisecond),
		AchievedRate:  float64(len(plan.Requests)) / elapsed.Seconds(),
		Status:        st,
		ShedRate:      float64(st.Shed) / float64(len(plan.Requests)),
		Latency:       latencyStats(hist),
		SampledTraces: sampled,
	}
	rep.Tiers = tierBreakdown(before, after)
	if rep.Tiers != nil && rep.Tiers.Lookups > 0 {
		rep.HitRate = rep.Tiers.L1HitRate
	}
	for _, name := range phaseOrder(phases) {
		h := phases[name]
		rep.Phases = append(rep.Phases, PhaseStat{
			Phase: name, Count: int64(h.Count()), P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		})
	}
	return rep, nil
}

// sleepUntil waits for the wall-clock deadline, returning early if the
// context dies (the caller re-checks ctx).
func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// doRequest issues one planned request, draining the body, and returns
// the trace ID header and the HTTP status (0 on transport error).
func doRequest(ctx context.Context, client *http.Client, base string, pr PlannedRequest) (string, int) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+pr.Path(), nil)
	if err != nil {
		return "", 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", 0
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Header.Get("X-Trace-Id"), resp.StatusCode
}

// fetchTrace resolves a finished request trace into its span tree.
func fetchTrace(ctx context.Context, client *http.Client, base, id string) (*obs.TraceTree, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/trace/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("load: trace %s: status %d", id, resp.StatusCode)
	}
	var tree obs.TraceTree
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		return nil, err
	}
	return &tree, nil
}

// recordPhases folds every non-root span of a trace into the per-phase
// histograms.
func recordPhases(phases map[string]*obs.HDRHistogram, tree *obs.TraceTree) {
	var walk func(n *obs.SpanNode, root bool)
	walk = func(n *obs.SpanNode, root bool) {
		if !root {
			h := phases[n.Name]
			if h == nil {
				h = obs.NewHDR()
				phases[n.Name] = h
			}
			h.Record(n.DurationUS)
		}
		for _, c := range n.Children {
			walk(c, false)
		}
	}
	for _, r := range tree.Spans {
		walk(r, true)
	}
}

// canonicalPhases orders the report's phase table by request flow; any
// phase outside the known pipeline sorts alphabetically after them.
var canonicalPhases = []string{"admission", "cache", "coalesce", "compute", "cell", "render"}

func phaseOrder(phases map[string]*obs.HDRHistogram) []string {
	rank := map[string]int{}
	for i, p := range canonicalPhases {
		rank[p] = i
	}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, iok := rank[names[i]]
		rj, jok := rank[names[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
	return names
}
