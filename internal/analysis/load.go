package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked unit. Mirroring the go tool, each directory
// yields up to three units: the base package (non-test files, the one
// other packages import), the test-augmented package (base plus
// in-package test files, never imported), and the external _test package.
type Package struct {
	// RelPath is the module-relative import path ("" for the module root).
	RelPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TestOnly marks the augmented and external test units: their
	// non-test files (if any) are duplicates of the base unit, so
	// analyzers only visit the *_test.go files.
	TestOnly bool
}

// Loader parses and type-checks the module's packages with a stdlib-only
// pipeline: go/parser for syntax, go/types for semantics, the source
// importer for the standard library, and itself for intra-module imports.
// Every Loader in a process shares one FileSet and one standard-library
// importer (sharedStd).
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset       *token.FileSet
	std        types.Importer
	cache      map[string]*Package // keyed by module-relative path
	inProgress map[string]bool
}

// NewLoader returns a loader rooted at the module containing dir (found by
// walking up to the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset, std := sharedStd()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        std,
		cache:      make(map[string]*Package),
		inProgress: make(map[string]bool),
	}, nil
}

// sharedStd returns the process-wide FileSet and standard-library
// importer. Type-checking net/http and its imports from source takes
// seconds, and the packages the importer returns are never modified, so
// one importer serves every Loader; the FileSet is shared because the
// importer records its positions there.
var sharedStd = sync.OnceValues(func() (*token.FileSet, *lockedImporter) {
	fset := token.NewFileSet()
	return fset, &lockedImporter{imp: importer.ForCompiler(fset, "source", nil)}
})

// lockedImporter serializes Import: the source importer is not safe for
// concurrent use.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Import implements types.Importer: module-local paths are type-checked by
// the loader itself, everything else (the standard library) goes through
// the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.loadRel(rel)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// loadRel loads (and caches) the package at the given module-relative path.
func (l *Loader) loadRel(rel string) (*Package, error) {
	if pkg, ok := l.cache[rel]; ok {
		return pkg, nil
	}
	if l.inProgress[rel] {
		return nil, fmt.Errorf("analysis: import cycle through %q", rel)
	}
	l.inProgress[rel] = true
	defer delete(l.inProgress, rel)
	pkg, err := l.checkDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), rel)
	if err != nil {
		return nil, err
	}
	l.cache[rel] = pkg
	return pkg, nil
}

// listGoFiles returns the sorted .go file names in dir, test files last.
func listGoFiles(dir string) (nonTest, inPkgTest []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			inPkgTest = append(inPkgTest, name)
		} else {
			nonTest = append(nonTest, name)
		}
	}
	sort.Strings(nonTest)
	sort.Strings(inPkgTest)
	return nonTest, inPkgTest, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

func (l *Loader) parse(dir, name string) (*ast.File, error) {
	return parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
}

func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return tpkg, info, nil
}

func (l *Loader) importPath(rel string) string {
	if rel == "" {
		return l.ModulePath
	}
	return l.ModulePath + "/" + rel
}

// checkDir parses and type-checks the base (importable) package in dir:
// the non-test files only, exactly what other packages see.
func (l *Loader) checkDir(dir, rel string) (*Package, error) {
	nonTest, _, err := listGoFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(nonTest) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range nonTest {
		f, err := l.parse(dir, name)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	tpkg, info, err := l.check(l.importPath(rel), files)
	if err != nil {
		return nil, err
	}
	return &Package{RelPath: rel, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// testUnits type-checks the test-augmented unit (non-test files plus
// same-package test files) and the external _test unit of dir, returning
// whichever exist. Both are marked TestOnly: their non-test files are the
// base unit's, re-checked only so the test files resolve.
func (l *Loader) testUnits(dir, rel string) ([]*Package, error) {
	nonTest, testNames, err := listGoFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(testNames) == 0 {
		return nil, nil
	}
	var baseFiles []*ast.File
	baseName := ""
	for _, name := range nonTest {
		f, err := l.parse(dir, name)
		if err != nil {
			return nil, err
		}
		baseName = f.Name.Name
		baseFiles = append(baseFiles, f)
	}
	var inPkg, external []*ast.File
	for _, name := range testNames {
		f, err := l.parse(dir, name)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") && f.Name.Name != baseName {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	var pkgs []*Package
	if len(inPkg) > 0 {
		files := append(append([]*ast.File(nil), baseFiles...), inPkg...)
		tpkg, info, err := l.check(l.importPath(rel), files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{RelPath: rel, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info, TestOnly: true})
	}
	if len(external) > 0 {
		tpkg, info, err := l.check(l.importPath(rel)+"_test", external)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{RelPath: rel, Dir: dir, Fset: l.fset, Files: external, Types: tpkg, Info: info, TestOnly: true})
	}
	return pkgs, nil
}

// LoadDir loads the package in dir under the given module-relative path,
// including its test units. Used by the fixture tests, where the declared
// path (not the on-disk location) selects which analyzers apply.
func (l *Loader) LoadDir(dir, rel string) ([]*Package, error) {
	nonTest, _, err := listGoFiles(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	if len(nonTest) > 0 {
		base, err := l.checkDir(dir, rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, base)
	}
	tests, err := l.testUnits(dir, rel)
	if err != nil {
		return nil, err
	}
	return append(pkgs, tests...), nil
}

// LoadModule loads every package in the module, including in-package and
// external test units. Like the go tool, it skips testdata and hidden
// directories, and any subdirectory with its own go.mod: that is another
// module (perfbench is one), not part of this one.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != l.ModuleRoot {
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		nonTest, testNames, err := listGoFiles(path)
		if err != nil {
			return err
		}
		if len(nonTest)+len(testNames) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		nonTest, _, err := listGoFiles(dir)
		if err != nil {
			return nil, err
		}
		if len(nonTest) > 0 {
			base, err := l.loadRel(rel)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, base)
		}
		tests, err := l.testUnits(dir, rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, tests...)
	}
	return pkgs, nil
}
