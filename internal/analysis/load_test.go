package analysis

import (
	"go/types"
	"path/filepath"
	"sync"
	"testing"
)

// TestLoadersShareStdImporter pins that every Loader in a process shares
// one standard-library importer, including Loaders used from several
// goroutines at once: net/http, which takes seconds to type-check from
// source, must resolve to the same package in each.
func TestLoadersShareStdImporter(t *testing.T) {
	const loaders = 3
	pkgs := make([]*types.Package, loaders)
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for i := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := NewLoader(".")
			if err != nil {
				errs[i] = err
				return
			}
			pkgs[i], errs[i] = l.Import("net/http")
		}()
	}
	wg.Wait()
	for i := range loaders {
		if errs[i] != nil {
			t.Fatalf("loader %d: %v", i, errs[i])
		}
		if pkgs[i] != pkgs[0] {
			t.Fatalf("loader %d type-checked its own net/http", i)
		}
	}
}

// TestPerfbenchTypeChecks type-checks perfbench, the benchmark's nested
// module, against this tree. go build ./... and go vet ./... stop at its
// go.mod, and LoadModule skips it as the go tool does, so without this
// test a change that renames or removes something perfbench calls would
// first fail when the benchmark runs.
func TestPerfbenchTypeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks perfbench and the module packages it imports")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDir(filepath.Join(l.ModuleRoot, "perfbench"), "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("perfbench has no Go package")
	}
}
