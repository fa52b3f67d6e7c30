package analysis

import (
	"strings"
	"testing"
)

// loadFixture loads one fixture directory under the given module-relative
// path.
func loadFixture(t *testing.T, dir, rel string) []*Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDir(dir, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages loaded from %s", dir)
	}
	return pkgs
}

// TestStaleAllowsFixture checks both directions on the stalecheck
// fixture: the live allow stays quiet, the stale one is reported.
func TestStaleAllowsFixture(t *testing.T) {
	pkgs := loadFixture(t, "testdata/stalecheck", "internal/sched")
	suite := All()
	var raw []Diagnostic
	for _, p := range pkgs {
		_, r := RunAnalyzersRaw(suite, p)
		raw = append(raw, r...)
	}
	stale := StaleAllows(suite, pkgs, raw)
	if len(stale) != 1 {
		t.Fatalf("got %d stale allows, want 1: %v", len(stale), stale)
	}
	d := stale[0]
	if !strings.Contains(d.Message, "stale hplint:allow maporder") {
		t.Errorf("unexpected message: %s", d.Message)
	}
	if base := d.Pos.Filename; !strings.HasSuffix(base, "fixture.go") || d.Pos.Line != 17 {
		t.Errorf("stale allow reported at %s:%d, want fixture.go:17", d.Pos.Filename, d.Pos.Line)
	}
	if d.Analyzer != "hplint" {
		t.Errorf("stale allow attributed to %q, want hplint", d.Analyzer)
	}
}
