package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Purity enforces the scheduler contract: a scheduler must treat its
// inputs — the Platform, task slices/Instances, and DAGs — as read-only,
// so the same instance can be handed to several schedulers (and to the
// bounds) without order-dependent results. The analysis taints every
// parameter and receiver whose type aliases caller state (slices,
// pointers and maps over platform/dag types), propagates the taint
// flow-sensitively through assignments, slicing and address-taking, and
// flags stores through tainted values and in-place sorts of tainted
// slices. Call results are deliberately untainted: `in.Clone()` and
// `g.Tasks()` produce (or are treated as producing) fresh values — the
// one known hole, Tasks() returning the backing slice, is documented in
// DESIGN.md §8.
//
// The check is also one call deep: passing a tainted value to an in-module helper whose
// mutation summary (summary.go) says it stores through or sorts that
// parameter is reported at the call site, even when the helper lives in
// a package purity does not scope.
var Purity = &Analyzer{
	Name:      "purity",
	Doc:       "schedulers must not mutate Platform, task slices, or DAG inputs",
	Packages:  []string{"internal/sched"},
	SkipTests: true,
	Run:       runPurity,
}

// isProtectedType reports whether t reaches a platform/dag type through
// slices, pointers, arrays or maps — i.e. whether a value of this type
// can alias scheduler-input state worth protecting. By-value structs
// (platform.Platform, platform.Task) are copies and need no protection.
func isProtectedType(t types.Type, depth int) bool {
	if depth > 6 {
		return false
	}
	switch t := t.(type) {
	case *types.Pointer:
		return protectedNamed(t.Elem()) || isProtectedType(t.Elem(), depth+1)
	case *types.Slice:
		return protectedNamed(t.Elem()) || isProtectedType(t.Elem(), depth+1)
	case *types.Array:
		return protectedNamed(t.Elem()) || isProtectedType(t.Elem(), depth+1)
	case *types.Map:
		return protectedNamed(t.Elem()) || isProtectedType(t.Elem(), depth+1)
	case *types.Named:
		// A named slice type (platform.Instance = []Task) is itself
		// reference-like.
		if _, ok := t.Underlying().(*types.Slice); ok {
			return protectedNamed(t) || isProtectedType(t.Underlying(), depth+1)
		}
		return false
	}
	return false
}

// protectedNamed reports whether t is one of the protected named types
// from internal/platform or internal/dag.
func protectedNamed(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if !strings.HasSuffix(path, "internal/platform") && !strings.HasSuffix(path, "internal/dag") {
		return false
	}
	switch obj.Name() {
	case "Task", "Instance", "Platform", "Graph":
		return true
	}
	return false
}

// protectedCarrier is the taint-carrier predicate for the purity
// analyzer proper: only values that can alias platform/dag state.
func protectedCarrier(t types.Type) bool { return isProtectedType(t, 0) }

// taintSet is the dataflow fact: objects that may alias scheduler input.
type taintSet map[types.Object]bool

func (s taintSet) clone() taintSet {
	c := make(taintSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// joinTaint is set union: taint is a may-analysis.
func joinTaint(a, b taintSet) taintSet {
	out := make(taintSet, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func equalTaint(a, b taintSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// taintTracker is the reusable alias-taint machinery: the purity
// analyzer instantiates it with the platform/dag carrier predicate, the
// mutation summaries (summary.go) with a generic reference-like one.
type taintTracker struct {
	info *types.Info
}

func (p *taintTracker) objectOf(id *ast.Ident) types.Object {
	if o := p.info.Uses[id]; o != nil {
		return o
	}
	return p.info.Defs[id]
}

// taintedExpr reports whether e may alias tainted state: a tainted
// identifier, or an index/slice/field/deref/address chain rooted at one.
// Calls break the chain (their results are fresh by contract).
func (p *taintTracker) taintedExpr(ts taintSet, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := p.info.Uses[e]
		if obj == nil {
			obj = p.info.Defs[e]
		}
		return obj != nil && ts[obj]
	case *ast.ParenExpr:
		return p.taintedExpr(ts, e.X)
	case *ast.IndexExpr:
		return p.taintedExpr(ts, e.X)
	case *ast.SliceExpr:
		return p.taintedExpr(ts, e.X)
	case *ast.SelectorExpr:
		// Field of a tainted struct pointer; method values break the chain.
		if _, isField := p.info.Uses[e.Sel].(*types.Var); isField {
			return p.taintedExpr(ts, e.X)
		}
		return false
	case *ast.StarExpr:
		return p.taintedExpr(ts, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return p.taintedExpr(ts, e.X)
		}
	}
	return false
}

// transferTaint propagates taint through a block's assignments. Only
// destinations satisfying the carrier predicate can hold taint: `t :=
// in[0]` copies a by-value element and owns the copy.
func (p *taintTracker) transferTaint(b *Block, in taintSet, carrier func(types.Type) bool) taintSet {
	ts := in
	mutated := false
	set := func(obj types.Object, tainted bool) {
		if obj == nil {
			return
		}
		if ts[obj] == tainted {
			return
		}
		if !mutated {
			ts = ts.clone()
			mutated = true
		}
		if tainted {
			ts[obj] = true
		} else {
			delete(ts, obj)
		}
	}
	for _, n := range b.Nodes {
		InspectShallow(n, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
				return true
			}
			if len(as.Lhs) != len(as.Rhs) {
				// Tuple-from-call: results are fresh, clear the LHS.
				for _, lhs := range as.Lhs {
					if id, isID := lhs.(*ast.Ident); isID && id.Name != "_" {
						set(p.objectOf(id), false)
					}
				}
				return true
			}
			for i, lhs := range as.Lhs {
				id, isID := lhs.(*ast.Ident)
				if !isID || id.Name == "_" {
					continue
				}
				obj := p.objectOf(id)
				tainted := p.taintedExpr(ts, as.Rhs[i]) && obj != nil && carrier(obj.Type())
				set(obj, tainted)
			}
			return true
		})
	}
	return ts
}

// sortFuncs are the in-place sorters from the standard library.
var sortFuncs = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"Float64s": true, "Ints": true, "Strings": true, "SortFunc": true,
	"SortStableFunc": true, "Reverse": true,
}

// rootOf returns the leftmost identifier of an lvalue chain, or nil.
func rootOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// findMutations reports, via the callback, each operation in n that
// mutates state reachable from a tainted object given the taint state
// before the node: stores and increments through an alias, and in-place
// sorts of tainted slices.
func (p *taintTracker) findMutations(n ast.Node, ts taintSet, report func(pos token.Pos, msg string)) {
	InspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				root := rootOf(lhs)
				if root == nil {
					continue
				}
				// A plain rebind `x = ...` of a tainted local only changes
				// the local; a store `x[i] = ...` / `x.f = ...` / `*x = ...`
				// writes through the alias.
				if _, isIdent := lhs.(*ast.Ident); isIdent {
					continue
				}
				obj := p.objectOf(root)
				if obj != nil && ts[obj] {
					report(lhs.Pos(), "store through "+root.Name+" mutates scheduler input (schedulers must treat Platform, task slices and DAGs as read-only)")
				}
			}
		case *ast.IncDecStmt:
			if root := rootOf(m.X); root != nil {
				if _, isIdent := m.X.(*ast.Ident); !isIdent {
					obj := p.objectOf(root)
					if obj != nil && ts[obj] {
						report(m.Pos(), "increment through "+root.Name+" mutates scheduler input")
					}
				}
			}
		case *ast.CallExpr:
			sel, isSel := m.Fun.(*ast.SelectorExpr)
			if !isSel {
				return true
			}
			// sort.Slice(in, ...) / slices.SortFunc(in, ...) on a tainted arg.
			if pkgID, isPkg := sel.X.(*ast.Ident); isPkg {
				if _, isPkgName := p.info.Uses[pkgID].(*types.PkgName); isPkgName {
					if (pkgID.Name == "sort" || pkgID.Name == "slices") && sortFuncs[sel.Sel.Name] && len(m.Args) > 0 {
						if p.taintedExpr(ts, m.Args[0]) {
							root := rootOf(m.Args[0])
							name := "argument"
							if root != nil {
								name = root.Name
							}
							report(m.Pos(), pkgID.Name+"."+sel.Sel.Name+" sorts "+name+" in place, mutating scheduler input — sort a Clone() instead")
						}
					}
					return true
				}
			}
			// Method with "Sort" in the name on a tainted receiver.
			if strings.Contains(sel.Sel.Name, "Sort") && p.taintedExpr(ts, sel.X) {
				root := rootOf(sel.X)
				name := "receiver"
				if root != nil {
					name = root.Name
				}
				report(m.Pos(), name+"."+sel.Sel.Name+" may reorder scheduler input in place — operate on a Clone() instead")
			}
		}
		return true
	})
}

// checkCallSites is the interprocedural half: a tainted value passed to
// an in-module callee whose mutation summary says it stores through that
// entry is a mutation of scheduler input, reported here at the call site.
func checkCallSites(pass *Pass, tr *taintTracker, n ast.Node, ts taintSet) {
	InspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		node := pass.Prog.NodeOf(fn)
		if node == nil {
			return true
		}
		for _, idx := range pass.Prog.MutatesParams(node) {
			if idx == -1 {
				if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel && tr.taintedExpr(ts, sel.X) {
					pass.Reportf(call.Pos(), "call to %s mutates its receiver in place, and the receiver aliases scheduler input — operate on a Clone() instead", node.Name)
				}
			} else if idx < len(call.Args) && tr.taintedExpr(ts, call.Args[idx]) {
				pass.Reportf(call.Args[idx].Pos(), "call to %s mutates this argument in place, and it aliases scheduler input — pass a Clone() instead", node.Name)
			}
		}
		return true
	})
}

func runPurity(pass *Pass) {
	tr := &taintTracker{info: pass.Info}
	for _, fb := range FunctionsOf(pass.Files) {
		entry := make(taintSet)
		for _, fl := range []*ast.FieldList{fb.Recv, fb.Type.Params} {
			if fl == nil {
				continue
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					obj := pass.Info.Defs[name]
					if obj != nil && isProtectedType(obj.Type(), 0) {
						entry[obj] = true
					}
				}
			}
		}
		if len(entry) == 0 {
			continue
		}
		g := BuildCFG(fb.Body)
		res := Solve(&FlowProblem[taintSet]{
			CFG:   g,
			Entry: entry,
			Join:  joinTaint,
			Equal: equalTaint,
			Transfer: func(b *Block, in taintSet) taintSet {
				return tr.transferTaint(b, in, protectedCarrier)
			},
		})
		for _, b := range g.Blocks {
			if !res.Reached[b.Index] {
				continue
			}
			ts := res.In[b.Index]
			for _, n := range b.Nodes {
				tr.findMutations(n, ts, func(pos token.Pos, msg string) {
					pass.Reportf(pos, "%s", msg)
				})
				checkCallSites(pass, tr, n, ts)
				ts = tr.transferTaint(&Block{Nodes: []ast.Node{n}}, ts, protectedCarrier)
			}
		}
	}
}
