package load

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteJSON writes the report as an indented JSON artifact.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human-readable SLO report.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "hpload SLO report — %s\n", r.Target)
	fmt.Fprintf(&b, "  plan       seed=%d requests=%d rate=%g/s hash=%s\n",
		r.Plan.Seed, r.Plan.Requests, r.Plan.Rate, r.Plan.Hash)
	fmt.Fprintf(&b, "  mix        %s (planned %s)\n", mixString(r.Plan.Mix), countsString(r.Plan.MixCounts))
	fmt.Fprintf(&b, "  run        concurrency=%d elapsed=%.1fms achieved=%.1f/s\n",
		r.Concurrency, r.ElapsedMS, r.AchievedRate)
	fmt.Fprintf(&b, "  status     ok=%d shed=%d deadline=%d error=%d\n",
		r.Status.OK, r.Status.Shed, r.Status.Deadline, r.Status.Errors)
	fmt.Fprintf(&b, "  slo        hit_rate=%.1f%% shed_rate=%.1f%%\n",
		r.HitRate*100, r.ShedRate*100)
	fmt.Fprintf(&b, "  latency    p50=%dus p99=%dus p999=%dus max=%dus mean=%dus\n",
		r.Latency.P50, r.Latency.P99, r.Latency.P999, r.Latency.Max, r.Latency.Mean)
	if t := r.Tiers; t != nil {
		fmt.Fprintf(&b, "  tiers      lookups=%d l1=%d (%.1f%%) computed=%d\n",
			t.Lookups, t.L1Hits, t.L1HitRate*100, t.Computed)
	}
	if len(r.Phases) > 0 {
		fmt.Fprintf(&b, "  phases     (from %d sampled traces; p50/p99 us)\n", r.SampledTraces)
		for _, p := range r.Phases {
			fmt.Fprintf(&b, "    %-10s n=%-5d %d/%d\n", p.Phase, p.Count, p.P50, p.P99)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func mixString(mix []MixEntry) string {
	parts := make([]string, 0, len(mix))
	for _, m := range mix {
		parts = append(parts, fmt.Sprintf("%s=%d", m.Kind, m.Weight))
	}
	return strings.Join(parts, ",")
}

func countsString(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return strings.Join(parts, " ")
}
