// Command hplint runs the repository's static-analysis suite
// (internal/analysis) over every package in the module and exits non-zero
// on any diagnostic. It is the machine check behind the invariants the
// paper's guarantees rest on. Its twelve analyzers check deterministic
// scheduling code (simdeterminism), float comparison hygiene (floateq),
// the zero-alloc observer and span guard contract (obsguard), ordered map
// iteration (maporder), sleep-free tests (sleepsync) and joined, rand-free
// goroutines (goroutinecheck); flow-sensitively, unit-consistent
// arithmetic (unitflow), mutex discipline (lockcheck), scheduler input
// purity (purity), error handling along every path (errflow) and span
// End() coverage on every path (spanend); and, module-wide over the call
// graph, allocation-free hot paths (allocflow). DESIGN.md §8 keeps a
// ledger of what each one costs and has caught.
//
// Usage:
//
//	go run ./cmd/hplint ./...
//
// Package patterns are accepted for familiarity but the whole module is
// always loaded — the analyzers are repo-wide invariants, not per-package
// opt-ins. With -catalog the tool lists the analyzers and exits.
//
// Flags:
//
//	-catalog          list the analyzers and exit
//	-enable a,b,...   run only the named analyzers (default: all twelve)
//	-json             emit one JSON object per finding, one per line
//	                  (findings with a call chain carry it in the "chain"
//	                  field)
//	-callgraph        dump the interprocedural call graph and exit
//	-calibrate dir    diff allocflow's escape verdicts against the
//	                  compiler's (go build -gcflags=-m) over the corpus in
//	                  dir; exit non-zero below 95% agreement
//	-dir path -rel p  lint a single directory as module-relative path p
//	                  (used by CI to assert the golden flag fixtures fail)
//
// A finding can be suppressed at the offending line (or the line above)
// with a justified escape comment:
//
//	//hplint:allow <analyzer> <reason>
//
// On full-module, full-suite runs hplint also reports stale allows —
// escape comments whose analyzer no longer fires at their site.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// finding is the JSON shape of one diagnostic: stable field names so CI
// can convert findings to GitHub annotations without parsing text.
// Chain is present only for findings that carry a call chain (allocflow
// hot-path chains).
type finding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

func main() {
	catalog := flag.Bool("catalog", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as one JSON object per line")
	enable := flag.String("enable", "", "comma-separated analyzer names to run (default: all)")
	dir := flag.String("dir", "", "lint a single directory instead of the module")
	rel := flag.String("rel", "", "module-relative path the -dir package is loaded under")
	callgraph := flag.Bool("callgraph", false, "dump the interprocedural call graph and exit")
	calibrate := flag.String("calibrate", "", "calibrate allocflow against go build -gcflags=-m over the corpus `dir`")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hplint [-catalog] [-callgraph] [-calibrate dir] [-json] [-enable a,b] [-dir path -rel relpath] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *calibrate != "" {
		rep, err := analysis.CalibrateDir(*calibrate)
		if err != nil {
			fatal(err)
		}
		rep.Format(os.Stdout)
		if rep.Agreement() < 0.95 {
			fmt.Fprintf(os.Stderr, "hplint: calibration agreement %.1f%% below the 95%% floor\n", 100*rep.Agreement())
			os.Exit(1)
		}
		return
	}

	suite := analysis.All()
	if *catalog {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *enable != "" {
		known := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			known[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*enable, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := known[name]
			if !ok {
				fatal(fmt.Errorf("-enable names unknown analyzer %q (see -catalog)", name))
			}
			picked = append(picked, a)
		}
		if len(picked) == 0 {
			fatal(fmt.Errorf("-enable selected no analyzers"))
		}
		suite = picked
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	var pkgs []*analysis.Package
	if *dir != "" {
		if *rel == "" {
			fatal(fmt.Errorf("-dir requires -rel (the module-relative path to lint the directory as)"))
		}
		pkgs, err = loader.LoadDir(*dir, *rel)
	} else {
		pkgs, err = loader.LoadModule()
	}
	if err != nil {
		fatal(err)
	}
	prog := analysis.BuildProgram(pkgs)
	if *callgraph {
		fmt.Print(prog.DumpGraph())
		return
	}
	// Collect everything before printing: findings are globally sorted by
	// (file, line, column, analyzer) so CI annotation diffs and golden
	// comparisons are stable across load order. Full-module, full-suite
	// runs also keep the raw (pre-suppression) stream to report stale
	// hplint:allow escapes; partial runs cannot tell stale from
	// not-exercised, so they skip the check.
	fullRun := *dir == "" && *enable == ""
	var diags, rawAll []analysis.Diagnostic
	for _, pkg := range pkgs {
		kept, raw := analysis.RunAnalyzersProgramRaw(suite, pkg, prog)
		diags = append(diags, kept...)
		if fullRun {
			rawAll = append(rawAll, raw...)
		}
	}
	if fullRun {
		diags = append(diags, analysis.StaleAllows(suite, pkgs, prog, rawAll)...)
	}
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
			f := finding{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column, Analyzer: d.Analyzer, Message: d.Message, Chain: d.Chain}
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
