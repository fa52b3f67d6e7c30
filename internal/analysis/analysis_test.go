package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// collectWants reads the fixture sources in dir and returns the expected
// diagnostics as "file.go:line" -> message substrings, taken from
// trailing `// want "substring"` comments.
func collectWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", e.Name(), i+1)
				wants[key] = append(wants[key], m[1])
			}
		}
	}
	return wants
}

// TestAnalyzerFixtures runs each analyzer over its golden fixture package
// (one file tripping the check, one exercising the sanctioned forms, one
// exercising the hplint:allow escape) and compares the diagnostics with
// the `// want` annotations. The fixture directory is loaded under the
// declared module-relative path so the analyzer's package scoping applies.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		dir string
		rel string
		az  *Analyzer
	}{
		{"simdeterminism", "internal/sim", SimDeterminism},
		{"floateq", "internal/bounds", FloatEq},
		{"maporder", "internal/sched", MapOrder},
		{"sleepsync", "internal/sleepfixture", SleepSync},
		{"lockcheck", "internal/obs", LockCheck},
		{"errflow", "internal/runtime", ErrFlow},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", c.dir)
			var got []Diagnostic
			for _, p := range loadFixture(t, dir, c.rel) {
				got = append(got, RunAnalyzers([]*Analyzer{c.az}, p)...)
			}
			wants := collectWants(t, dir)
			for _, d := range got {
				key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
				subs := wants[key]
				found := false
				for i, s := range subs {
					if strings.Contains(d.Message, s) {
						wants[key] = append(subs[:i], subs[i+1:]...)
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for key, subs := range wants {
				for _, s := range subs {
					t.Errorf("missing diagnostic at %s matching %q", key, s)
				}
			}
		})
	}
}

// TestMalformedAllows checks that broken escape comments are themselves
// diagnostics: the reason is mandatory and the analyzer must exist.
func TestMalformedAllows(t *testing.T) {
	src := `package p

//hplint:allow
func a() {}

//hplint:allow floateq
func b() {}

//hplint:allow nosuchanalyzer because reasons
func c() {}

//hplint:allow floateq a recorded reason
func d() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	allows := collectAllows(fset, []*ast.File{f}, map[string]bool{"floateq": true}, &diags)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "hplint" {
			t.Errorf("malformed allow attributed to %q, want hplint", d.Analyzer)
		}
	}
	// The well-formed escape suppresses its own line and the next.
	if !allows[allowKey{"allow.go", 12, "floateq"}] || !allows[allowKey{"allow.go", 13, "floateq"}] {
		t.Errorf("well-formed allow not recorded: %v", allows)
	}
}

// TestAllowsCheckedOncePerFile runs a one-analyzer suite over a package
// with an in-package test. Another analyzer's valid escape is no
// diagnostic, and the malformed escape in the non-test file is reported
// once, by the base unit, not again by the test unit that repeats it.
func TestAllowsCheckedOncePerFile(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"p.go": "package p\n\n" +
			allowPrefix + " maporder a valid escape of an analyzer the run leaves out\n" +
			"func A() int { return 1 }\n\n" +
			allowPrefix + " nosuchanalyzer because reasons\n" +
			"func B() int { return 2 }\n",
		"p_test.go": `package p

func sum() int { return A() + B() }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs := loadFixture(t, dir, "internal/bounds")
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d units, want the base and the in-package test unit", len(pkgs))
	}
	var got []Diagnostic
	for _, p := range pkgs {
		got = append(got, RunAnalyzers([]*Analyzer{FloatEq}, p)...)
	}
	if len(got) != 1 || got[0].Pos.Line != 6 || !strings.Contains(got[0].Message, `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("got %v, want one unknown-analyzer diagnostic at p.go:6", got)
	}
}
