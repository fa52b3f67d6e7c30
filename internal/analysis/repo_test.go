package analysis

import "testing"

// TestRepoIsClean runs the full analyzer suite over the whole module and
// requires zero diagnostics — and zero stale hplint:allow escapes: the
// repository must stay hplint-clean. CI also runs the cmd/hplint binary;
// this keeps plain `go test ./...` self-contained.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	// The walk keeps the root package and stops at perfbench's go.mod.
	root := false
	for _, p := range pkgs {
		root = root || p.RelPath == ""
		if p.RelPath == "perfbench" {
			t.Errorf("LoadModule loaded the nested module perfbench")
		}
	}
	if !root {
		t.Errorf("LoadModule skipped the module's root package")
	}
	suite := All()
	var raw []Diagnostic
	for _, p := range pkgs {
		kept, r := RunAnalyzersRaw(suite, p)
		for _, d := range kept {
			t.Errorf("%s", d)
		}
		raw = append(raw, r...)
	}
	for _, d := range StaleAllows(suite, pkgs, raw) {
		t.Errorf("%s", d)
	}
}
