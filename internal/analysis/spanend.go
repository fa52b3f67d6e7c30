package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanEnd flags spans that are started but not guaranteed to end: a
// *obs.Span local assigned from StartTrace/StartChild must have
// `x.End()` reached on every control-flow path from the start to the
// function exit. A span that is never ended never reaches the trace
// ring (and, being pooled, leaks its slot until GC), so the request it
// belongs to silently loses a phase — exactly the kind of observability
// bug no test notices.
//
// End-containment is checked over whole statements (a `defer x.End()`,
// or a deferred closure calling x.End(), discharges the obligation at
// the defer statement), and paths through the false branch of an
// `if x != nil` guard are vacuous — the started span is non-nil, so only
// the true branch is realizable. Spans that escape (returned, stored
// into a struct/map/slice element) transfer the obligation to the
// consumer and are exempt.
var SpanEnd = &Analyzer{
	Name:      "spanend",
	Doc:       "every span started must reach its End() on all paths",
	Packages:  []string{"cmd/hpserve", "internal/serve", "internal/engine", "internal/load"},
	SkipTests: true,
	Run:       runSpanEnd,
}

type spanend struct {
	pass *Pass
}

// startedSpanObject returns the span object and source call when node is
// a single-value assignment `x := recv.StartChild(...)` (or StartTrace).
func (s *spanend) startedSpanObject(n ast.Node) types.Object {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" || !isStartCall(as.Rhs[0]) {
		return nil
	}
	obj := s.pass.Info.Defs[id]
	if obj == nil {
		obj = s.pass.Info.Uses[id]
	}
	if obj == nil || !isSpanType(obj.Type()) {
		return nil
	}
	return obj
}

// containsEnd reports whether node n (a whole statement, searched
// including deferred closures) calls obj.End().
func (s *spanend) containsEnd(n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return true
		}
		if id, isID := sel.X.(*ast.Ident); isID && s.pass.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// escapes reports whether obj leaves the function: it appears in a
// return statement, inside a composite literal, or on the right of an
// assignment whose target is not a plain local identifier (field, map,
// or slice element). The End obligation transfers with it.
func (s *spanend) escapes(body *ast.BlockStmt, obj types.Object) bool {
	usesObj := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && s.pass.Info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if usesObj(r) {
					escaped = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range x.Elts {
				if usesObj(e) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for i, l := range x.Lhs {
				if _, isID := l.(*ast.Ident); isID {
					continue
				}
				if i < len(x.Rhs) && usesObj(x.Rhs[i]) {
					escaped = true
				}
				if len(x.Rhs) == 1 && usesObj(x.Rhs[0]) {
					escaped = true
				}
			}
		}
		return !escaped
	})
	return escaped
}

// nilCond classifies a node as a nil comparison of obj: +1 for
// `obj != nil`, -1 for `obj == nil`, 0 otherwise.
func (s *spanend) nilCond(n ast.Node, obj types.Object) int {
	e, ok := n.(ast.Expr)
	if !ok {
		return 0
	}
	for {
		p, isParen := e.(*ast.ParenExpr)
		if !isParen {
			break
		}
		e = p.X
	}
	be, ok := e.(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return 0
	}
	x, y := be.X, be.Y
	if isNilIdent(s.pass.Info, x) {
		x, y = y, x
	}
	if !isNilIdent(s.pass.Info, y) {
		return 0
	}
	id, ok := x.(*ast.Ident)
	if !ok || s.pass.Info.Uses[id] != obj {
		return 0
	}
	if be.Op == token.NEQ {
		return 1
	}
	return -1
}

// missesEndOnSomePath walks the CFG from just after the start node and
// reports whether some realizable path reaches the exit without a
// statement containing obj.End(). The false branch of `if obj != nil`
// is not realizable (obj was just started, hence non-nil); successor
// order for an if condition is [then, else/done] by CFG construction.
func (s *spanend) missesEndOnSomePath(g *CFG, start *Block, startIdx int, obj types.Object) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block, idx int) bool
	walk = func(b *Block, idx int) bool {
		for i := idx; i < len(b.Nodes); i++ {
			if s.containsEnd(b.Nodes[i], obj) {
				return false
			}
		}
		if b == g.Exit {
			return true
		}
		skip := -1
		if len(b.Nodes) > 0 && len(b.Succs) == 2 {
			switch s.nilCond(b.Nodes[len(b.Nodes)-1], obj) {
			case 1:
				skip = 1 // `obj != nil`: the nil branch is dead
			case -1:
				skip = 0 // `obj == nil`: the non-nil branch is Succs[1]
			}
		}
		for i, succ := range b.Succs {
			if i == skip || seen[succ] {
				continue
			}
			seen[succ] = true
			if walk(succ, 0) {
				return true
			}
		}
		return false
	}
	return walk(start, startIdx+1)
}

func runSpanEnd(pass *Pass) {
	s := &spanend{pass: pass}
	for _, fb := range FunctionsOf(pass.Files) {
		g := BuildCFG(fb.Body)
		for _, b := range g.Blocks {
			for idx, n := range b.Nodes {
				obj := s.startedSpanObject(n)
				if obj == nil || s.escapes(fb.Body, obj) {
					continue
				}
				if s.missesEndOnSomePath(g, b, idx, obj) {
					pass.Reportf(n.Pos(), "span %s is started here but not ended on every path (missing %s.End() before some exit)", obj.Name(), obj.Name())
				}
			}
		}
	}
}
