package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes the per-function summaries that purity and errflow
// read one call deep, at the call sites in the packages they scope:
//
//   - mutation summaries for purity: which reference-like parameters the
//     function may store through or sort in place;
//   - swallowed-error summaries for errflow: a statement-position call
//     whose error result the function silently discards.
//
// Summaries honor the escape convention at the *callee*: a mutation or
// discard site whose line carries the matching //hplint:allow comment in
// the callee's own file is treated as contracted-clean and never reaches
// callers — one justified escape at the defining line covers every call
// through it.

// Node is one declared function or method of the module.
type Node struct {
	Obj *types.Func
	// Name is the display name used in findings: "core.runList",
	// "sim.Kernel.StartTimed".
	Name string
	// Pkg is the package the node's body lives in.
	Pkg *Package
	// Body is the function body (never nil; bodiless declarations get no
	// node).
	Body *ast.BlockStmt
	// Type carries parameters and results; Recv the receiver list.
	Type *ast.FuncType
	Recv *ast.FieldList
}

// Program is the whole-module analysis unit: a node for every function
// declared in a base (non-test) package, and their lazily computed
// summaries.
type Program struct {
	Fset *token.FileSet
	// Nodes in deterministic order (file position).
	Nodes  []*Node
	byFunc map[*types.Func]*Node

	mutationSites map[*Node][]mutationSite
	mutates       map[*Node][]int
	swallowSites  map[*Node][]token.Pos
}

// NodeOf returns the node of a declared function, or nil.
func (prog *Program) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return prog.byFunc[fn.Origin()]
}

// BuildProgram creates a node for every function declared in pkgs. Test
// units (TestOnly) are skipped: their re-type-checked declarations would
// duplicate the base units' objects.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		byFunc:        map[*types.Func]*Node{},
		mutationSites: map[*Node][]mutationSite{},
		mutates:       map[*Node][]int{},
		swallowSites:  map[*Node][]token.Pos{},
	}
	for _, p := range pkgs {
		if p.TestOnly {
			continue
		}
		if prog.Fset == nil {
			prog.Fset = p.Fset
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{Obj: fn, Name: nodeName(p, fd, fn), Pkg: p, Body: fd.Body, Type: fd.Type, Recv: fd.Recv}
				prog.Nodes = append(prog.Nodes, n)
				prog.byFunc[fn] = n
			}
		}
	}
	return prog
}

// nodeName builds the display name: pkg.Func, pkg.Recv.Method (pointer
// receivers render without the star).
func nodeName(p *Package, fd *ast.FuncDecl, fn *types.Func) string {
	pkg := p.Types.Name()
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	rt := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	name := "?"
	if named, ok := rt.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return pkg + "." + name + "." + fd.Name.Name
}

// allowedLines returns the file:line keys suppressed for analyzer name in
// pkg (both the trailing-comment line and the line below, mirroring
// collectAllows). Malformed allows are NOT validated here — that happens
// when pkg itself is analyzed.
func (prog *Program) allowedLines(pkg *Package, name string) map[string]bool {
	out := map[string]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				az, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if az != name || strings.TrimSpace(reason) == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = true
				out[fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)] = true
			}
		}
	}
	return out
}

// onLine reports whether pos lies on one of the allowedLines keys.
func (prog *Program) onLine(allowed map[string]bool, pos token.Pos) bool {
	p := prog.Fset.Position(pos)
	return allowed[fmt.Sprintf("%s:%d", p.Filename, p.Line)]
}

// inspectOwn visits a function body without descending into nested
// function literals, whose bodies run at points the caller does not
// control. The literal node itself is still visited.
func inspectOwn(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(m ast.Node) bool {
		if fl, ok := m.(*ast.FuncLit); ok {
			f(fl)
			return false
		}
		return f(m)
	})
}

// calleeFunc resolves a call's static target function object, if any.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ---- mutation summaries (purity) ----

// mutationSite is one store through, or in-place sort of, a
// reference-like entry of a function.
type mutationSite struct {
	pos   token.Pos
	entry int // entryCandidate.index: parameter position, -1 = receiver
}

// mutationSitesRaw returns every mutation site of n's entries, ignoring
// allows, grouped by entry in entryCandidates order. It is the raw
// summary behind MutatesParams and the stale-allow liveness check.
func (prog *Program) mutationSitesRaw(n *Node) []mutationSite {
	if sites, ok := prog.mutationSites[n]; ok {
		return sites
	}
	var out []mutationSite
	tr := &taintTracker{info: n.Pkg.Info}
	g := BuildCFG(n.Body)
	for _, cand := range entryCandidates(n) {
		res := Solve(&FlowProblem[taintSet]{
			CFG:      g,
			Entry:    taintSet{cand.obj: true},
			Join:     joinTaint,
			Equal:    equalTaint,
			Transfer: func(b *Block, in taintSet) taintSet { return tr.transferTaint(b, in, isRefLike) },
		})
		for _, b := range g.Blocks {
			if !res.Reached[b.Index] {
				continue
			}
			ts := res.In[b.Index]
			for _, node := range b.Nodes {
				tr.findMutations(node, ts, func(pos token.Pos, _ string) {
					out = append(out, mutationSite{pos: pos, entry: cand.index})
				})
				ts = tr.transferTaint(&Block{Nodes: []ast.Node{node}}, ts, isRefLike)
			}
		}
	}
	prog.mutationSites[n] = out
	return out
}

// MutatesParams returns the entry positions n may store through or sort
// in place: 0..len(params)-1 for parameters, -1 for the receiver. Only
// reference-like entries (pointer, slice, map, named slice) are
// candidates. Sites carrying a //hplint:allow purity escape in the
// node's own package are contracted-clean.
func (prog *Program) MutatesParams(n *Node) []int {
	if m, ok := prog.mutates[n]; ok {
		return m
	}
	var out []int
	if sites := prog.mutationSitesRaw(n); len(sites) > 0 {
		allowed := prog.allowedLines(n.Pkg, "purity")
		for _, s := range sites {
			if len(out) > 0 && out[len(out)-1] == s.entry {
				continue
			}
			if !prog.onLine(allowed, s.pos) {
				out = append(out, s.entry)
			}
		}
	}
	prog.mutates[n] = out
	return out
}

type entryCandidate struct {
	index int // -1 = receiver
	obj   types.Object
}

// isRefLike reports whether a value of type t can alias caller state.
func isRefLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

func entryCandidates(n *Node) []entryCandidate {
	var out []entryCandidate
	info := n.Pkg.Info
	if n.Recv != nil {
		for _, f := range n.Recv.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil && isRefLike(obj.Type()) {
					out = append(out, entryCandidate{index: -1, obj: obj})
				}
			}
		}
	}
	i := 0
	if n.Type.Params != nil {
		for _, f := range n.Type.Params.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil && isRefLike(obj.Type()) {
					out = append(out, entryCandidate{index: i, obj: obj})
				}
				i++
			}
			if len(f.Names) == 0 {
				i++
			}
		}
	}
	return out
}

// ---- swallowed-error summaries (errflow) ----

// swallowSitesRaw returns every statement-position call in n whose error
// result is silently discarded, ignoring allows (fmt printers, never-fail
// writers and explicit `_ =` discards are exempt). It is the raw summary
// behind SwallowsError and the stale-allow liveness check.
func (prog *Program) swallowSitesRaw(n *Node) []token.Pos {
	if sites, ok := prog.swallowSites[n]; ok {
		return sites
	}
	var out []token.Pos
	info := n.Pkg.Info
	inspectOwn(n.Body, func(m ast.Node) bool {
		es, ok := m.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, okT := info.Types[call]; okT && hasErrorResult(tv.Type) && !ignoredErrorCallInfo(info, call) {
			out = append(out, call.Pos())
		}
		return true
	})
	prog.swallowSites[n] = out
	return out
}

// SwallowsError returns the position of the first raw swallow site in n
// that no //hplint:allow errflow line exempts, or token.NoPos.
func (prog *Program) SwallowsError(n *Node) token.Pos {
	sites := prog.swallowSitesRaw(n)
	if len(sites) == 0 {
		return token.NoPos
	}
	allowed := prog.allowedLines(n.Pkg, "errflow")
	for _, pos := range sites {
		if !prog.onLine(allowed, pos) {
			return pos
		}
	}
	return token.NoPos
}
