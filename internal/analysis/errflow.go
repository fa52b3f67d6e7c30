package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrFlow flags errors that leak along control-flow paths, in every
// package of the module: (1) an error assigned to a variable that, on
// some path, is overwritten or falls off the end of the function without
// ever being read — including the shadowed-`err` form where an inner `:=`
// hides the outer variable; (2) a call discarding an error result in
// statement position. Explicit discards (`_ = f()`) are intentional and
// stay silent, as do fmt's printers and the never-fail writers
// (strings.Builder, bytes.Buffer). A helper that discards an error is
// reported in its own body, not at its callers.
var ErrFlow = &Analyzer{
	Name:      "errflow",
	Doc:       "no dropped or shadowed errors along any path",
	SkipTests: true,
	Run:       runErrFlow,
}

// isErrorType reports whether t is exactly the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// hasErrorResult reports whether a call result type includes an error.
func hasErrorResult(t types.Type) bool {
	if isErrorType(t) {
		return true
	}
	tup, ok := t.(*types.Tuple)
	if !ok {
		return false
	}
	for i := 0; i < tup.Len(); i++ {
		if isErrorType(tup.At(i).Type()) {
			return true
		}
	}
	return false
}

type errflow struct {
	pass *Pass
}

func (e *errflow) objectOf(id *ast.Ident) types.Object {
	if o := e.pass.Info.Uses[id]; o != nil {
		return o
	}
	return e.pass.Info.Defs[id]
}

// nodeEffect classifies what one CFG node does to obj: reads it
// (anywhere, including a self-assignment's RHS) and/or overwrites it.
func (e *errflow) nodeEffect(n ast.Node, obj types.Object) (used, assigned bool) {
	var scanUses func(m ast.Node)
	scanUses = func(m ast.Node) {
		InspectShallow(m, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && e.pass.Info.Uses[id] == obj {
				used = true
			}
			return true
		})
	}
	InspectShallow(n, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok {
			if id, isID := m.(*ast.Ident); isID && e.pass.Info.Uses[id] == obj {
				// An identifier outside any assignment LHS is a read.
				used = true
			}
			return true
		}
		for _, r := range as.Rhs {
			scanUses(r)
		}
		for _, l := range as.Lhs {
			if id, isID := l.(*ast.Ident); isID {
				if e.pass.Info.Uses[id] == obj || e.pass.Info.Defs[id] == obj {
					assigned = true
				}
				continue
			}
			scanUses(l) // m[err] = v reads err
		}
		return false
	})
	return used, assigned
}

// droppedOnSomePath reports whether, starting after node startIdx of
// start, some path overwrites obj or reaches the exit without reading it.
func (e *errflow) droppedOnSomePath(g *CFG, start *Block, startIdx int, obj types.Object) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block, idx int) bool
	walk = func(b *Block, idx int) bool {
		for i := idx; i < len(b.Nodes); i++ {
			used, assigned := e.nodeEffect(b.Nodes[i], obj)
			if used {
				return false
			}
			if assigned {
				return true // overwritten before any read
			}
		}
		if b == g.Exit {
			return true // fell off the end unread
		}
		for _, s := range b.Succs {
			if seen[s] {
				continue
			}
			seen[s] = true
			if walk(s, 0) {
				return true
			}
		}
		return false
	}
	return walk(start, startIdx+1)
}

// assignedErrorObjects returns the error objects a top-level CFG node
// assigns, with the defining token (to distinguish := shadows).
func (e *errflow) assignedErrorObjects(n ast.Node) []types.Object {
	as, ok := n.(*ast.AssignStmt)
	if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
		return nil
	}
	var out []types.Object
	for _, l := range as.Lhs {
		id, isID := l.(*ast.Ident)
		if !isID || id.Name == "_" {
			continue
		}
		obj := e.objectOf(id)
		if obj != nil && isErrorType(obj.Type()) {
			out = append(out, obj)
		}
	}
	return out
}

// shadowsOuterError reports whether obj (defined by :=) hides an
// error-typed variable of the same name in an enclosing scope.
func shadowsOuterError(obj types.Object) bool {
	scope := obj.Parent()
	if scope == nil || scope.Parent() == nil {
		return false
	}
	_, outer := scope.Parent().LookupParent(obj.Name(), obj.Pos())
	if outer == nil || outer == obj {
		return false
	}
	v, ok := outer.(*types.Var)
	return ok && isErrorType(v.Type())
}

// ignoredErrorCall reports whether a statement-position call discarding
// its error is acceptable: fmt printers and the never-fail writers.
func ignoredErrorCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "strings" && name == "Builder") || (pkg == "bytes" && name == "Buffer")
}

// usedInsideFuncLit collects the objects referenced inside function
// literals of body: their uses are invisible to the enclosing CFG, so
// the path analysis must not judge them.
func (e *errflow) usedInsideFuncLit(body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if id, isID := m.(*ast.Ident); isID {
				if obj := e.pass.Info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
			return true
		})
		return false
	})
	return out
}

// declaredIn reports whether obj is declared in fb's own signature or
// body. A function literal that assigns a variable of its enclosing
// function (a deferred recover setting the named result, say) hands the
// value to code outside its CFG, so only a function's own variables are
// judged.
func declaredIn(fb FuncBody, obj types.Object) bool {
	return obj.Pos() >= fb.Type.Pos() && obj.Pos() < fb.Body.End()
}

// namedResults collects the function's named result objects: assigning
// them is a use in itself (the return reads them implicitly).
func (e *errflow) namedResults(fb FuncBody) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fb.Type.Results == nil {
		return out
	}
	for _, f := range fb.Type.Results.List {
		for _, name := range f.Names {
			if obj := e.pass.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

func runErrFlow(pass *Pass) {
	e := &errflow{pass: pass}
	for _, fb := range FunctionsOf(pass.Files) {
		g := BuildCFG(fb.Body)
		escaped := e.usedInsideFuncLit(fb.Body)
		results := e.namedResults(fb)
		for _, b := range g.Blocks {
			for idx, n := range b.Nodes {
				// (2) discarded error results in statement position.
				if es, ok := n.(*ast.ExprStmt); ok {
					if call, isCall := es.X.(*ast.CallExpr); isCall {
						if tv, hasType := pass.Info.Types[call]; hasType && hasErrorResult(tv.Type) && !ignoredErrorCall(pass.Info, call) {
							pass.Reportf(call.Pos(), "call discards its error result; handle it or assign to _ explicitly")
						}
					}
					continue
				}
				// (1) error assignments dropped on some path.
				for _, obj := range e.assignedErrorObjects(n) {
					if escaped[obj] || results[obj] || !declaredIn(fb, obj) {
						continue
					}
					if e.droppedOnSomePath(g, b, idx, obj) {
						if shadowsOuterError(obj) {
							pass.Reportf(n.Pos(), "%s := shadows the outer %s and the inner error is dropped on some path", obj.Name(), obj.Name())
						} else {
							pass.Reportf(n.Pos(), "error assigned to %s is dropped on some path (overwritten or function exits without reading it)", obj.Name())
						}
					}
				}
			}
		}
	}
}
