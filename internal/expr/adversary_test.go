package expr

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestAdversaryExperiment(t *testing.T) {
	rows, err := AdversaryPool(context.Background(), engine.Default(), 600, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.WorstFound > r.Bound+1e-6 {
			t.Errorf("(%d,%d): worst found %v exceeds the proven bound %v", r.CPUs, r.GPUs, r.WorstFound, r.Bound)
		}
		if r.WorstFound < 1 {
			t.Errorf("(%d,%d): ratio %v below 1", r.CPUs, r.GPUs, r.WorstFound)
		}
	}
	if md := AdversaryTable(rows).Markdown(); !strings.Contains(md, "worst found") {
		t.Error("table rendering")
	}
}
