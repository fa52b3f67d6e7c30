// Package analysis is the repository's static-analysis suite (the hplint
// tool). It enforces, with go/ast and go/types and nothing else, the
// invariants the paper's guarantees rest on and which the rest of the
// repository otherwise protects only by convention:
//
//   - simdeterminism: scheduling code must be a pure function of task
//     durations — no wall clock, no global random source;
//   - floateq: no exact float equality where ρ-ties or bound comparisons
//     need an epsilon or a deterministic tie-break;
//   - maporder: no scheduling-relevant slice built from a map iteration
//     without a subsequent sort;
//   - sleepsync: no time.Sleep-based synchronization in tests;
//
// and two flow-sensitive analyzers built on the package's CFG (cfg.go),
// lockcheck also on its forward-dataflow engine (dataflow.go):
//
//   - lockcheck: mutex discipline — fields declared after a mutex in
//     their struct are accessed only with it held;
//   - errflow: no dropped or shadowed errors along any path, in every
//     package of the module.
//
// Every analyzer checks one package at a time; none reads another
// package's function bodies.
//
// A diagnostic can be suppressed with a trailing (or immediately
// preceding) comment of the form
//
//	//hplint:allow <analyzer> <reason>
//
// The reason is mandatory: an escape without a recorded justification is
// itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in diagnostics and allow comments.
	Name string
	// Doc is a one-line description of the invariant the analyzer protects.
	Doc string
	// Packages lists the module-relative import paths the analyzer applies
	// to (e.g. "internal/core"). Empty means every package.
	Packages []string
	// TestFiles selects which files the analyzer visits: OnlyTests visits
	// only *_test.go files, SkipTests only non-test files.
	OnlyTests bool
	SkipTests bool
	// Run reports diagnostics for one package via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// RelPath is the module-relative import path ("" for the module root).
	RelPath string
	// Files are the parsed files the analyzer should visit (already
	// filtered by the OnlyTests/SkipTests file selector).
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for file.go:line:col rendering.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional positional format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full suite of six analyzers in stable order: the four
// syntactic analyzers, then the two flow-sensitive analyzers built on
// the CFG (cfg.go). DESIGN.md §8 keeps a ledger of what each one costs,
// has caught, and catches that no test does.
func All() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		FloatEq,
		MapOrder,
		SleepSync,
		LockCheck,
		ErrFlow,
	}
}

// deterministicPackages are the packages whose behavior must be a pure
// function of task durations: the simulator substrate, the schedulers,
// the bounds, the DAG machinery, and the live executor (which gets its
// clock injected for exactly this reason).
var deterministicPackages = []string{
	"internal/sim",
	"internal/core",
	"internal/sched",
	"internal/bounds",
	"internal/dag",
	"internal/runtime",
}

// allowKey identifies one (file line, analyzer) suppression.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

const allowPrefix = "//hplint:allow"

// collectAllows scans a file's comments for hplint:allow markers. A marker
// on line N suppresses diagnostics of the named analyzer on line N (the
// trailing-comment form) and line N+1 (the comment-above form). Malformed
// markers — an analyzer not in known, or no reason — are reported as
// diagnostics of the pseudo-analyzer "hplint".
func collectAllows(fset *token.FileSet, files []*ast.File, known map[string]bool, diags *[]Diagnostic) map[allowKey]bool {
	allows := make(map[allowKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				name, reason, _ := strings.Cut(rest, " ")
				bad := func(msg string) {
					*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "hplint", Message: msg})
				}
				if name == "" {
					bad("hplint:allow needs an analyzer name and a reason")
					continue
				}
				if !known[name] {
					bad(fmt.Sprintf("hplint:allow names unknown analyzer %q", name))
					continue
				}
				if strings.TrimSpace(reason) == "" {
					bad(fmt.Sprintf("hplint:allow %s needs a reason", name))
					continue
				}
				allows[allowKey{pos.Filename, pos.Line, name}] = true
				allows[allowKey{pos.Filename, pos.Line + 1, name}] = true
			}
		}
	}
	return allows
}

// isTestFile reports whether the file at pos is a *_test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// RunAnalyzers runs every analyzer in suite over pkg and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func RunAnalyzers(suite []*Analyzer, pkg *Package) []Diagnostic {
	kept, _ := RunAnalyzersRaw(suite, pkg)
	return kept
}

// RunAnalyzersRaw is RunAnalyzers plus the raw diagnostic stream before
// allow-suppression. The raw stream is what the stale-allow detector
// (stale.go) consumes: an allow is live exactly when a raw diagnostic
// fired on one of its lines.
//
// An escape may name any analyzer of All(), whichever subset suite is,
// so a partial run does not flag the other analyzers' escapes. A test
// unit owns only its _test.go files — its other files repeat the base
// unit's — so each file's escapes are checked, and its findings
// reported, once.
func RunAnalyzersRaw(suite []*Analyzer, pkg *Package) (kept, raw []Diagnostic) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	owned := pkg.Files
	if pkg.TestOnly {
		owned = nil
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f) {
				owned = append(owned, f)
			}
		}
	}
	var diags []Diagnostic
	allows := collectAllows(pkg.Fset, owned, known, &diags)
	for _, a := range suite {
		if len(a.Packages) > 0 {
			hit := false
			for _, p := range a.Packages {
				if pkg.RelPath == p {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		var files []*ast.File
		for _, f := range owned {
			test := isTestFile(pkg.Fset, f)
			if (a.OnlyTests && !test) || (a.SkipTests && test) {
				continue
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			RelPath:  pkg.RelPath,
			Files:    files,
			Types:    pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}
	raw = diags
	kept = make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if allows[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
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
	return kept, raw
}
