package expr

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workloads"
)

func TestRobustnessZeroSigmaMatchesNominal(t *testing.T) {
	pl := PaperPlatform()
	rows, err := RobustnessPool(context.Background(), engine.Default(), workloads.FactCholesky, 8, []float64{0}, 2, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	for alg, ratio := range rows[0].Ratio {
		if ratio < 1-1e-9 {
			t.Errorf("%s: ratio %v below 1", alg, ratio)
		}
		if ratio > 3 {
			t.Errorf("%s: ratio %v implausible at sigma 0", alg, ratio)
		}
	}
}

func TestRobustnessNoiseSweep(t *testing.T) {
	pl := PaperPlatform()
	rows, err := RobustnessPool(context.Background(), engine.Default(), workloads.FactCholesky, 8, []float64{0, 0.3}, 2, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		for alg, ratio := range r.Ratio {
			if ratio < 1-1e-9 || ratio > 10 {
				t.Errorf("sigma %v %s: ratio %v out of range", r.Sigma, alg, ratio)
			}
		}
	}
	md := RobustnessTable(rows).Markdown()
	if !strings.Contains(md, "HeteroPrio-min") || !strings.Contains(md, "MCT") {
		t.Errorf("table rendering:\n%s", md)
	}
}
