package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	dir := t.TempDir()
	for _, exp := range []string{"table1", "table2", "shape"} {
		if err := run(exp, dir, true, 1); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
		if _, err := os.Stat(filepath.Join(dir, exp+".csv")); err != nil {
			t.Errorf("%s: csv not written: %v", exp, err)
		}
	}
}

func TestRunQuickFigures(t *testing.T) {
	dir := t.TempDir()
	if err := run("fig6", dir, true, 4); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig6.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "HeteroPrio") {
		t.Error("fig6 csv content wrong")
	}
}

// TestRunQuickRefusesDefaultOut: a -quick run into the default -out
// would overwrite the checked-in reproduction with reduced-sweep values,
// so it fails before it writes anything.
func TestRunQuickRefusesDefaultOut(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "results", "fig6.csv")
	if err := os.MkdirAll(filepath.Dir(csv), 0o755); err != nil {
		t.Fatal(err)
	}
	const checkedIn = "checked-in fig6\n"
	if err := os.WriteFile(csv, []byte(checkedIn), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	err := run("fig6", "results", true, 1)
	if err == nil || !strings.Contains(err.Error(), "-out") {
		t.Fatalf("run(-quick, -out results) = %v, want an error naming -out", err)
	}
	raw, err := os.ReadFile(csv)
	if err != nil || string(raw) != checkedIn {
		t.Errorf("results/fig6.csv = %q, %v; want it untouched", raw, err)
	}
	if entries, err := os.ReadDir(filepath.Dir(csv)); err != nil || len(entries) != 1 {
		t.Errorf("results/ holds %d entries (%v); want only fig6.csv", len(entries), err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", t.TempDir(), true, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunTournament(t *testing.T) {
	dir := t.TempDir()
	if err := run("tournament", dir, true, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tournament.csv", "tournament_wins.csv"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, alg := range []string{"HeteroPrio", "ERLS", "HLP", "CLB2C", "PriorityAware", "Affinity"} {
			if !strings.Contains(string(raw), alg) {
				t.Errorf("%s: missing column for %s", name, alg)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "tournament_8c2g.svg")); err != nil {
		t.Errorf("tournament chart not written: %v", err)
	}
}
