package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Stale-escape detection: an //hplint:allow comment earns its keep only
// while the named analyzer would still fire at that site. Once the code
// underneath is fixed or refactored away, the allow is a standing
// invitation to reintroduce the problem silently — so hplint reports it
// for deletion. An allow is live exactly when the raw (pre-suppression)
// diagnostic stream of a full-suite, full-module run fired on one of its
// lines. Detection needs the whole suite over the whole module, which
// every cmd/hplint run and the repo self-test provide: a run of fewer
// analyzers or packages cannot distinguish "stale" from "not exercised
// here".

// StaleAllows reports every hplint:allow comment in pkgs that no longer
// suppresses anything. raw must be the concatenated RAW diagnostic
// streams (RunAnalyzersRaw) of every package in pkgs, and suite the full
// suite those runs used.
func StaleAllows(suite []*Analyzer, pkgs []*Package, raw []Diagnostic) []Diagnostic {
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	fired := map[allowKey]bool{}
	for _, d := range raw {
		if d.Analyzer == "hplint" {
			continue
		}
		fired[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] = true
	}

	var out []Diagnostic
	seenFile := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fname := pkg.Fset.Position(f.Pos()).Filename
			if seenFile[fname] {
				continue
			}
			seenFile[fname] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, allowPrefix)
					if !ok {
						continue
					}
					az, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
					if !known[az] || strings.TrimSpace(reason) == "" {
						continue // malformed allows get their own diagnostics
					}
					pos := pkg.Fset.Position(c.Pos())
					if fired[allowKey{pos.Filename, pos.Line, az}] || fired[allowKey{pos.Filename, pos.Line + 1, az}] {
						continue
					}
					out = append(out, staleDiag(pos, az))
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

func staleDiag(pos token.Position, az string) Diagnostic {
	return Diagnostic{
		Pos:      pos,
		Analyzer: "hplint",
		Message:  fmt.Sprintf("stale hplint:allow %s — the analyzer no longer fires at this site; delete the escape", az),
	}
}
