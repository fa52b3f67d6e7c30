// Command hplint runs the repository's static-analysis suite
// (internal/analysis) over every package in the module and exits non-zero
// on any diagnostic. It is the machine check behind the invariants the
// paper's guarantees rest on. Its six analyzers check deterministic
// scheduling code (simdeterminism), float comparison hygiene (floateq),
// ordered map iteration (maporder) and sleep-free tests (sleepsync);
// and, flow-sensitively, mutex discipline (lockcheck) and error handling
// along every path (errflow).
// Each analyzer checks one package at a time. DESIGN.md §8 keeps a
// ledger of what each one costs and has caught.
//
// Usage:
//
//	go run ./cmd/hplint ./...
//
// Package patterns are accepted for familiarity but every run loads the
// whole module and runs the whole suite — the analyzers are repo-wide
// invariants, not per-package opt-ins. To run one analyzer over its
// fixture, use go test ./internal/analysis -run 'TestAnalyzerFixtures/<name>'.
//
// Flags:
//
//	-catalog          list the analyzers and exit
//	-json             emit one JSON object per finding, one per line
//
// A finding can be suppressed at the offending line (or the line above)
// with a justified escape comment:
//
//	//hplint:allow <analyzer> <reason>
//
// hplint also reports stale allows — escape comments whose analyzer no
// longer fires at their site.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
)

// finding is the JSON shape of one diagnostic: stable field names so CI
// can convert findings to GitHub annotations without parsing text.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	catalog := flag.Bool("catalog", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as one JSON object per line")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hplint [-catalog] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analysis.All()
	if *catalog {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fatal(err)
	}
	// Collect everything before printing: findings are globally sorted by
	// (file, line, column, analyzer) so CI annotation diffs and golden
	// comparisons are stable across load order. The raw (pre-suppression)
	// stream is kept to report stale hplint:allow escapes.
	var diags, rawAll []analysis.Diagnostic
	for _, pkg := range pkgs {
		kept, raw := analysis.RunAnalyzersRaw(suite, pkg)
		diags = append(diags, kept...)
		rawAll = append(rawAll, raw...)
	}
	diags = append(diags, analysis.StaleAllows(suite, pkgs, rawAll)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *jsonOut {
			f := finding{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column, Analyzer: d.Analyzer, Message: d.Message}
			if err := enc.Encode(f); err != nil {
				fatal(err)
			}
		} else {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hplint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hplint:", err)
	os.Exit(2)
}
