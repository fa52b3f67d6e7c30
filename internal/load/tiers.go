package load

import (
	"context"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// TierBreakdown is the cache accounting of a run, from the target's
// /metrics deltas. Counts are exact; with no sheds they are a pure
// function of the plan, independent of client concurrency: coalescing
// computes each distinct key exactly once.
type TierBreakdown struct {
	Lookups   int64   `json:"lookups"`
	L1Hits    int64   `json:"l1_hits"` // includes coalesced shares
	Computed  int64   `json:"computed"`
	L1HitRate float64 `json:"l1_hit_rate"`
}

// scrapeExposition fetches and parses a /metrics exposition; failures
// degrade to nil (the report omits what it cannot measure).
func scrapeExposition(ctx context.Context, client *http.Client, base string) *obs.Exposition {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(base, "/")+"/metrics", nil)
	if err != nil {
		return nil
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	exp, err := obs.ParseExposition(string(body))
	if err != nil {
		return nil
	}
	return exp
}

// expDelta reads the increase of a summed family between two scrapes.
// Either side being nil reads as zero.
func expDelta(before, after *obs.Exposition, name string) float64 {
	if after == nil {
		return 0
	}
	d := after.Value(name)
	if before != nil {
		d -= before.Value(name)
	}
	return d
}

// tierBreakdown derives the cache accounting from target scrapes.
func tierBreakdown(before, after *obs.Exposition) *TierBreakdown {
	if after == nil {
		return nil
	}
	l1 := int64(expDelta(before, after, "hp_cache_hits_total"))
	misses := int64(expDelta(before, after, "hp_cache_misses_total"))
	t := &TierBreakdown{
		Lookups:  l1 + misses,
		L1Hits:   l1,
		Computed: misses,
	}
	if t.Lookups > 0 {
		t.L1HitRate = float64(t.L1Hits) / float64(t.Lookups)
	}
	return t
}
