package expr

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestFigCharts(t *testing.T) {
	pl := PaperPlatform()
	rows6, err := Fig6Pool(context.Background(), engine.Default(), []int{4, 8}, pl)
	if err != nil {
		t.Fatal(err)
	}
	c6 := Fig6Charts(rows6)
	if len(c6) != 3 {
		t.Fatalf("fig6 charts = %d, want 3", len(c6))
	}
	for name, c := range c6 {
		svg := c.SVG(760, 420)
		if !strings.Contains(svg, "HeteroPrio") {
			t.Errorf("%s: missing series", name)
		}
	}

	rows7, err := Fig7Pool(context.Background(), engine.Default(), []int{4, 8}, pl)
	if err != nil {
		t.Fatal(err)
	}
	for setName, charts := range map[string]int{"7": 3, "8": 3, "9": 3} {
		var got int
		switch setName {
		case "7":
			got = len(Fig7Charts(rows7))
		case "8":
			got = len(Fig8Charts(rows7))
		case "9":
			got = len(Fig9Charts(rows7))
		}
		if got != charts {
			t.Errorf("fig%s charts = %d, want %d", setName, got, charts)
		}
	}
	svg := Fig7Charts(rows7)["fig7_cholesky"].SVG(760, 420)
	if !strings.Contains(svg, "DualHP-fifo") {
		t.Error("fig7 chart missing algorithm")
	}
}
