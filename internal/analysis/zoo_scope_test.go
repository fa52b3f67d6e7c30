package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestZooFilesInAnalyzerScope pins the hplint scope contract the
// competitor zoo relies on: simdeterminism (no wall clock or global
// randomness in the simulation path) is package-scoped on internal/sched,
// so every scheduler file — including each zoo file added for DESIGN.md
// §15 — is analyzed without needing per-file registration. The test fails
// if the scope drops the package, or if a zoo file disappears without
// this roster being updated. That the zoo leaves its inputs untouched is
// tested directly, by internal/expr's TestEntryPointsLeaveInputsUntouched.
func TestZooFilesInAnalyzerScope(t *testing.T) {
	if !slices.Contains(SimDeterminism.Packages, "internal/sched") {
		t.Errorf("simdeterminism no longer covers internal/sched: %v", SimDeterminism.Packages)
	}

	// Package scope means "every non-test file in the directory": verify
	// the zoo roster is actually on disk, and that the loader hands the
	// analyzers every non-test file (nothing is skipped by build tags or
	// naming).
	dir := filepath.Join("..", "sched")
	zoo := []string{"zoo.go", "erls.go", "hlp.go", "clb2c.go", "priaware.go", "affinity.go"}
	onDisk := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			onDisk[e.Name()] = true
		}
	}
	for _, f := range zoo {
		if !onDisk[f] {
			t.Errorf("zoo file %s missing from internal/sched", f)
		}
	}

	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDir(dir, "internal/sched")
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		if p.TestOnly {
			continue
		}
		for _, f := range p.Files {
			loaded[filepath.Base(p.Fset.Position(f.Pos()).Filename)] = true
		}
	}
	for name := range onDisk {
		if !loaded[name] {
			t.Errorf("%s is on disk but not loaded for analysis", name)
		}
	}
}
