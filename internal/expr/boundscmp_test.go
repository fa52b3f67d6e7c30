package expr

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestBoundsCmp(t *testing.T) {
	rows, err := BoundsCmpPool(context.Background(), engine.Default(), []int{4, 8}, PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Base < r.Area-1e-9 || r.Base < r.CP-1e-9 {
			t.Errorf("%s N=%d: base %v below components %v/%v", r.Kernel, r.N, r.Base, r.Area, r.CP)
		}
		if r.Refined < r.Base-1e-9 {
			t.Errorf("%s N=%d: refined %v below base %v", r.Kernel, r.N, r.Refined, r.Base)
		}
		if r.HP < r.Refined-1e-6 {
			t.Errorf("%s N=%d: makespan %v below refined bound %v", r.Kernel, r.N, r.HP, r.Refined)
		}
	}
	if md := BoundsCmpTable(rows).Markdown(); !strings.Contains(md, "refined sweep") {
		t.Error("table rendering")
	}
}
