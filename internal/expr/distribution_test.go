package expr

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestDistribution(t *testing.T) {
	rows, err := DistributionPool(context.Background(), engine.Default(), 40, 60, PaperPlatform(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DistributionAlgorithms()) {
		t.Fatalf("%d rows", len(rows))
	}
	byAlg := map[string]DistributionRow{}
	for _, r := range rows {
		byAlg[r.Algorithm] = r
		if r.Samples != 40 {
			t.Errorf("%s: %d samples", r.Algorithm, r.Samples)
		}
		if r.P50 < 1-1e-9 || r.P50 > r.P90+1e-9 || r.P90 > r.P99+1e-9 || r.P99 > r.Max+1e-9 {
			t.Errorf("%s: quantiles disordered: %+v", r.Algorithm, r)
		}
	}
	// HeteroPrio's tail should not exceed the affinity-blind MCT's tail on
	// this affinity-structured workload.
	if byAlg["HeteroPrio"].P90 > byAlg["MCT"].P90+1e-9 {
		t.Errorf("HeteroPrio p90 %v above MCT p90 %v", byAlg["HeteroPrio"].P90, byAlg["MCT"].P90)
	}
	if md := DistributionTable(rows).Markdown(); !strings.Contains(md, "p99") {
		t.Error("table rendering")
	}
}
