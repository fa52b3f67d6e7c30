package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzersCatchRepoMutations holds every analyzer to a mutation of
// the repository's own code, not only to its testdata fixture. Each row
// copies one real package (its non-test files, plus the edited file) into
// a temporary directory, applies one textual edit that breaks the
// analyzer's invariant, loads the copy under the package's own path and
// runs that analyzer alone over it. The finding must land on an edited
// line. An analyzer's second row is an edit no other test catches
// (DESIGN.md §8 records which tests catch the first). The unedited
// packages are TestRepoIsClean's business.
func TestAnalyzersCatchRepoMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a dozen module packages")
	}
	cases := []struct {
		name     string // subtest name of an analyzer's second row; default az.Name
		az       *Analyzer
		rel      string // module-relative package path
		file     string // the edited file
		old, new string // the edit; old occurs exactly once in file
		want     string // message substring
	}{
		{
			// Reverts the clock injection: the live executor's epoch
			// comes from the wall clock again.
			az: SimDeterminism, rel: "internal/runtime", file: "runtime.go",
			old:  "epoch := clk.Now()",
			new:  "epoch := time.Now()",
			want: "time.Now in scheduling code",
		},
		{
			// Validate matches a spoliation restart to its abort instant
			// exactly instead of within the tolerance.
			az: FloatEq, rel: "internal/sim", file: "schedule.go",
			old:  "if math.Abs(s.Entries[restart].Start-a.End) <= tol {",
			new:  "if s.Entries[restart].Start == a.End {",
			want: "exact float ==",
		},
		{
			// The exact solver branches over one worker per (class, load)
			// symmetry class in its map's order instead of platform order.
			az: MapOrder, rel: "internal/sched", file: "exact.go",
			old: "\t\tseen := make(map[key]bool, nw)\n\t\tfor w := 0; w < nw; w++ {\n\t\t\tk := pl.KindOf(w)\n" +
				"\t\t\tkk := key{k, loads[w]}\n\t\t\tif seen[kk] {\n\t\t\t\tcontinue\n\t\t\t}\n\t\t\tseen[kk] = true\n",
			new: "\t\tseen := make(map[key]int, nw)\n\t\tfor w := nw - 1; w >= 0; w-- {\n\t\t\tseen[key{pl.KindOf(w), loads[w]}] = w\n\t\t}\n" +
				"\t\tvar ws []int\n\t\tfor _, w := range seen {\n\t\t\tws = append(ws, w)\n\t\t}\n" +
				"\t\tfor _, w := range ws {\n\t\t\tk := pl.KindOf(w)\n",
			want: "nondeterministic order",
		},
		{
			// A test waits for the wall clock to move by sleeping.
			az: SleepSync, rel: "internal/clock", file: "clock_test.go",
			old:  "\ta := w.Now()\n",
			new:  "\ta := w.Now()\n\ttime.Sleep(time.Millisecond)\n",
			want: "time.Sleep in a test",
		},
		{
			// CounterVec.With's fast path reads the map without the lock.
			az: LockCheck, rel: "internal/obs", file: "metrics.go",
			old:  "\tv.mu.RLock()\n\tc := v.kids[value]\n\tv.mu.RUnlock()\n",
			new:  "\tc := v.kids[value]\n",
			want: "read of v.kids guarded by mu",
		},
		{
			// The trace lookup behind /trace/{id} scans the ring of
			// finished traces without its lock, while every finishing
			// request writes the ring. No test, -race included, fails on
			// this edit.
			name: "lockcheck_Trace",
			az:   LockCheck, rel: "internal/obs", file: "span.go",
			old:  "\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n\tfor _, td := range t.ring {\n",
			new:  "\tfor _, td := range t.ring {\n",
			want: "t.ring guarded by mu",
		},
		{
			// The live executor drops the priority computation's error.
			az: ErrFlow, rel: "internal/runtime", file: "runtime.go",
			old:  "\t\tif _, err := g.d.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {\n\t\t\treturn nil, err\n\t\t}\n",
			new:  "\t\tg.d.AssignBottomLevelPriorities(dag.WeightMin, pl)\n",
			want: "discards its error result",
		},
		{
			// A helper outside the commands discards an error. errflow
			// reports it in the helper's own package.
			name: "errflow_NewLogger",
			az:   ErrFlow, rel: "internal/obs", file: "logging.go",
			old:  "\tlevel := slog.LevelInfo\n\tjson := false\n",
			new:  "\tos.Setenv(\"HP_X\", \"1\")\n\tlevel := slog.LevelInfo\n\tjson := false\n",
			want: "discards its error result",
		},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.az.Name] = true
	}
	for _, a := range All() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no repository mutation", a.Name)
		}
	}

	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		name := c.name
		if name == "" {
			name = c.az.Name
		}
		t.Run(name, func(t *testing.T) {
			tmp := t.TempDir()
			src := filepath.Join(l.ModuleRoot, filepath.FromSlash(c.rel))
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			first, last := 0, 0
			for _, e := range entries {
				name := e.Name()
				if !strings.HasSuffix(name, ".go") || (strings.HasSuffix(name, "_test.go") && name != c.file) {
					continue
				}
				data, err := os.ReadFile(filepath.Join(src, name))
				if err != nil {
					t.Fatal(err)
				}
				text := string(data)
				if name == c.file {
					if n := strings.Count(text, c.old); n != 1 {
						t.Fatalf("%s: the edit's old text occurs %d times, want 1", name, n)
					}
					i := strings.Index(text, c.old)
					first = 1 + strings.Count(text[:i], "\n")
					last = first + strings.Count(c.new, "\n")
					text = text[:i] + c.new + text[i+len(c.old):]
				}
				if err := os.WriteFile(filepath.Join(tmp, name), []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if first == 0 {
				t.Fatalf("%s has no file %s", c.rel, c.file)
			}
			pkgs, err := l.LoadDir(tmp, c.rel)
			if err != nil {
				t.Fatal(err)
			}
			var got []Diagnostic
			for _, p := range pkgs {
				got = append(got, RunAnalyzers([]*Analyzer{c.az}, p)...)
			}
			for _, d := range got {
				if filepath.Base(d.Pos.Filename) == c.file && d.Pos.Line >= first && d.Pos.Line <= last &&
					d.Analyzer == c.az.Name && strings.Contains(d.Message, c.want) {
					return
				}
			}
			t.Errorf("no %s finding matching %q on %s:%d-%d; got %v", c.az.Name, c.want, c.file, first, last, got)
		})
	}
}
