package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ObsGuard enforces the zero-alloc observability contract on the hot
// paths: every obs.Observer method call must sit inside an `if o != nil`
// guard on the same receiver, a variable o or a field s.o (so the nil
// fast path costs nothing), and its arguments must be non-allocating —
// no function literals, no composite literals, no fmt.Sprint-family
// calls. The contract is what keeps BenchmarkScheduleIndependent /
// TestObserverNopZeroAlloc at zero allocations per event.
//
// The same discipline applies to span emission (*obs.Span methods are
// deliberately not nil-safe — a nil-receiver fast path would hide the
// cost of forgotten guards): a call on a span variable that may be nil
// (assigned from SpanFromContext, declared without a value, a
// parameter) must sit inside an `if sp != nil` guard; variables whose
// every assignment is a StartTrace/StartChild call are provably
// non-nil and may be used bare. Span call arguments obey the same
// non-allocating rule as observer arguments.
var ObsGuard = &Analyzer{
	Name:      "obsguard",
	Doc:       "observer and span emission must be nil-guarded and pass only non-allocating arguments",
	Packages:  []string{"internal/core", "internal/engine", "internal/serve", "internal/load", "internal/trace", "cmd/hpserve"},
	SkipTests: true,
	Run:       runObsGuard,
}

// isObserverType reports whether t is the obs.Observer interface.
func isObserverType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Observer" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}

// isSpanType reports whether t is *obs.Span.
func isSpanType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Span" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}

// isGuardableType reports whether obj is something obsguard tracks: an
// obs.Observer interface value or a *obs.Span.
func isGuardableType(t types.Type) bool {
	return isObserverType(t) || isSpanType(t)
}

// guardKey names a receiver obsguard tracks: a variable (o), or a field
// read through a variable (s.o). Both objects are part of the key, so a
// guard on s.o does not cover t.o.
type guardKey struct {
	base, obj types.Object
}

// receiverOf resolves a call receiver or nil-checked operand to its key.
// It reports false for other expressions and for untracked types.
func receiverOf(info *types.Info, e ast.Expr) (guardKey, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		return guardKey{obj: obj}, obj != nil && isGuardableType(obj.Type())
	case *ast.SelectorExpr:
		base, ok := x.X.(*ast.Ident)
		sel := info.Selections[x]
		if !ok || sel == nil || sel.Kind() != types.FieldVal || info.Uses[base] == nil {
			return guardKey{}, false
		}
		return guardKey{base: info.Uses[base], obj: sel.Obj()}, isGuardableType(sel.Obj().Type())
	}
	return guardKey{}, false
}

// guardRange is one `if o != nil { ... }` body protecting receiver key.
type guardRange struct {
	key      guardKey
	from, to token.Pos
}

// nilCheckedObjects returns the receivers that cond proves non-nil:
// `o != nil` or `s.o != nil`, possibly among the conjuncts of &&-chains.
func nilCheckedObjects(info *types.Info, cond ast.Expr) []guardKey {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return nilCheckedObjects(info, e.X)
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return append(nilCheckedObjects(info, e.X), nilCheckedObjects(info, e.Y)...)
		}
		if e.Op != token.NEQ {
			return nil
		}
		x, y := e.X, e.Y
		if isNilIdent(info, x) {
			x, y = y, x
		}
		if !isNilIdent(info, y) {
			return nil
		}
		if k, ok := receiverOf(info, x); ok {
			return []guardKey{k}
		}
	}
	return nil
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// allocatingExpr returns a description of the first allocating
// sub-expression of e ("" if none): function literals, composite
// literals, and fmt.Sprint-family calls all allocate per event.
func allocatingExpr(info *types.Info, e ast.Expr) (desc string, pos token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			desc, pos = "function literal", x.Pos()
			return false
		case *ast.CompositeLit:
			desc, pos = "composite literal", x.Pos()
			return false
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					desc, pos = "fmt."+fn.Name()+" call", x.Pos()
					return false
				}
			}
		}
		return true
	})
	return desc, pos
}

// isStartCall reports whether e is a call whose method name proves a
// non-nil span result: StartTrace and StartChild never return nil.
func isStartCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == "StartTrace" || sel.Sel.Name == "StartChild"
}

// startedSpans classifies the file's span-typed variables: an object is
// "started" (provably non-nil) when it has at least one assignment and
// every one of its assignments — including its declaration — is a
// StartTrace/StartChild call. Everything else (SpanFromContext results,
// `var` declarations, parameters, multi-value assignments) stays
// maybe-nil and needs guards at every call.
func startedSpans(info *types.Info, f *ast.File) map[types.Object]bool {
	started := map[types.Object]bool{}
	poisoned := map[types.Object]bool{}
	record := func(id *ast.Ident, ok bool) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || !isSpanType(obj.Type()) {
			return
		}
		if ok && !poisoned[obj] {
			started[obj] = true
		} else {
			poisoned[obj] = true
			delete(started, obj)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, l := range x.Lhs {
				id, isID := l.(*ast.Ident)
				if !isID || id.Name == "_" {
					continue
				}
				record(id, len(x.Lhs) == len(x.Rhs) && isStartCall(x.Rhs[i]))
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				record(name, i < len(x.Values) && isStartCall(x.Values[i]))
			}
		}
		return true
	})
	return started
}

func runObsGuard(pass *Pass) {
	for _, f := range pass.Files {
		var guards []guardRange
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			for _, k := range nilCheckedObjects(pass.Info, ifs.Cond) {
				guards = append(guards, guardRange{key: k, from: ifs.Body.Pos(), to: ifs.Body.End()})
			}
			return true
		})
		guarded := func(k guardKey, pos token.Pos) bool {
			for _, g := range guards {
				if g.key == k && g.from <= pos && pos < g.to {
					return true
				}
			}
			return false
		}
		started := startedSpans(pass.Info, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			k, ok := receiverOf(pass.Info, sel.X)
			if !ok {
				return true
			}
			recv := types.ExprString(sel.X)
			if isObserverType(k.obj.Type()) {
				if !guarded(k, call.Pos()) {
					pass.Reportf(call.Pos(), "observer call %s.%s outside an `if %s != nil` guard defeats the nil fast path", recv, sel.Sel.Name, recv)
				}
			} else if !(k.base == nil && started[k.obj]) && !guarded(k, call.Pos()) {
				pass.Reportf(call.Pos(), "span call %s.%s outside an `if %s != nil` guard panics on untraced requests (span methods are not nil-safe)", recv, sel.Sel.Name, recv)
			}
			for _, arg := range call.Args {
				if desc, pos := allocatingExpr(pass.Info, arg); desc != "" {
					pass.Reportf(pos, "allocating argument (%s) in observer call %s.%s breaks the zero-alloc contract", desc, recv, sel.Sel.Name)
				}
			}
			return true
		})
	}
}
