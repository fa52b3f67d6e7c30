package load

import (
	"context"
	"testing"

	"repro/internal/obs"
)

func mustParse(t *testing.T, text string) *obs.Exposition {
	t.Helper()
	exp, err := obs.ParseExposition(text)
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	return exp
}

func TestTierBreakdown(t *testing.T) {
	before := mustParse(t, "hp_cache_hits_total 10\nhp_cache_misses_total 4\n")
	after := mustParse(t, "hp_cache_hits_total 40\nhp_cache_misses_total 14\n")
	tb := tierBreakdown(before, after)
	if tb == nil {
		t.Fatal("nil breakdown")
	}
	want := TierBreakdown{Lookups: 40, L1Hits: 30, Computed: 10, L1HitRate: 0.75}
	if *tb != want {
		t.Fatalf("breakdown %+v, want %+v", *tb, want)
	}
	// No after scrape: no breakdown. No before scrape: absolute values.
	if tierBreakdown(before, nil) != nil {
		t.Fatal("breakdown from a failed after-scrape")
	}
	if tb := tierBreakdown(nil, after); tb.Lookups != 54 || tb.L1Hits != 40 {
		t.Fatalf("absolute breakdown %+v", tb)
	}
}

// TestRunSingleTargetTierBreakdown pins that a run lands the tier
// breakdown off the target's own /metrics.
func TestRunSingleTargetTierBreakdown(t *testing.T) {
	srv, _ := stubServer(t)
	rep, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Plan:    PlanConfig{Requests: 10, Rate: 4000, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tiers == nil || rep.Tiers.Lookups == 0 {
		t.Fatalf("tier breakdown missing: %+v", rep.Tiers)
	}
}
