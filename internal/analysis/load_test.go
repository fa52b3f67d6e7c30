package analysis

import (
	"go/types"
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
