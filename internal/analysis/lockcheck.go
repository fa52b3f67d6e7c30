package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheck enforces the observability packages' mutex discipline. The
// repository convention (documented in DESIGN.md §8) is positional: a
// sync.Mutex or sync.RWMutex field guards every field declared after it
// in the same struct. LockCheck maps each guarded field to its mutex and
// runs a flow-sensitive must-held analysis per function: an access to a
// guarded field of a parameter or receiver is flagged unless every path
// to it locks the right mutex (writes need the full lock; reads are also
// fine under RLock). Locally-constructed values are exempt — the
// constructor idiom initializes fields before the value is shared.
var LockCheck = &Analyzer{
	Name:      "lockcheck",
	Doc:       "guarded struct fields must only be accessed with their mutex held",
	Packages:  []string{"internal/obs", "internal/serve", "internal/load", "internal/trace", "cmd/hpserve"},
	SkipTests: true,
	Run:       runLockCheck,
}

// lockLevel is how strongly a mutex is held on every path to a point.
type lockLevel uint8

const (
	lockNone lockLevel = iota // only used transiently; absent from maps
	lockRead                  // RLock held (or better on every path, weakest wins)
	lockWrite
)

// lockKey identifies one mutex instance: the variable holding the struct
// and the mutex field within it.
type lockKey struct {
	base types.Object
	mu   *types.Var
}

// lockState is the dataflow fact: the locks that are held on EVERY path
// reaching a point (a must-analysis — join is intersection with the
// weaker level winning).
type lockState map[lockKey]lockLevel

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func joinLockState(a, b lockState) lockState {
	out := make(lockState)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			lv := va
			if vb < lv {
				lv = vb
			}
			out[k] = lv
		}
	}
	return out
}

func equalLockState(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			return false
		}
	}
	return true
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (not via
// pointer — the repository embeds mutexes by value).
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// guardMap maps each guarded field object to the mutex field that guards
// it, per the positional convention.
type guardMap map[*types.Var]*types.Var

// collectGuards builds the guard map for every struct type declared in
// the package.
func collectGuards(pass *Pass) guardMap {
	guards := make(guardMap)
	scope := pass.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var current *types.Var
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isMutexType(f.Type()) {
				current = f
				continue
			}
			if current != nil {
				guards[f] = current
			}
		}
	}
	return guards
}

// lockcheck carries one package's analysis.
type lockcheck struct {
	pass   *Pass
	guards guardMap
}

// baseObject resolves the variable at the root of a selector base: for
// `v.mu.Lock()` or `v.kids`, the object of `v`. Only plain identifiers
// qualify — anything more complex (map lookups, calls) is out of scope.
func (l *lockcheck) baseObject(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return l.pass.Info.Uses[x]
		default:
			return nil
		}
	}
}

// lockOp decodes a statement-level call `x.mu.Lock()` and friends. It
// returns the affected key and the operation name, or ok=false.
func (l *lockcheck) lockOp(call *ast.CallExpr) (key lockKey, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return key, "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return key, "", false
	}
	// sel.X must itself be a selector base.mu with mu a mutex field.
	inner, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel {
		return key, "", false
	}
	muObj, isVar := l.pass.Info.Uses[inner.Sel].(*types.Var)
	if !isVar || !isMutexType(muObj.Type()) {
		return key, "", false
	}
	base := l.baseObject(inner.X)
	if base == nil {
		return key, "", false
	}
	return lockKey{base: base, mu: muObj}, op, true
}

// transferLocks applies a block's lock operations to the state.
func (l *lockcheck) transferLocks(b *Block, in lockState) lockState {
	st := in
	mutated := false
	set := func(k lockKey, lv lockLevel) {
		if !mutated {
			st = st.clone()
			mutated = true
		}
		if lv == lockNone {
			delete(st, k)
		} else {
			st[k] = lv
		}
	}
	for _, n := range b.Nodes {
		if _, isDefer := n.(*ast.DeferStmt); isDefer {
			// defer x.mu.Unlock() releases at return; the lock stays held
			// for the rest of the function body.
			continue
		}
		InspectShallow(n, func(m ast.Node) bool {
			call, isCall := m.(*ast.CallExpr)
			if !isCall {
				return true
			}
			if key, op, ok := l.lockOp(call); ok {
				switch op {
				case "Lock":
					set(key, lockWrite)
				case "RLock":
					set(key, lockRead)
				case "Unlock", "RUnlock":
					set(key, lockNone)
				}
			}
			return true
		})
	}
	return st
}

// interestingBase reports whether accesses through obj are checked:
// parameters and receivers alias caller-visible state; locals are the
// constructor idiom.
func interestingBase(obj types.Object, fb FuncBody, info *types.Info) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	for _, fl := range []*ast.FieldList{fb.Recv, fb.Type.Params} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if info.Defs[name] == v {
					return true
				}
			}
		}
	}
	return false
}

// guardedAccess is one `x.f` touch of a guarded field found in a block.
type guardedAccess struct {
	pos   token.Pos
	key   lockKey
	field *types.Var
	write bool
}

// findAccesses collects the guarded-field accesses a block performs,
// classifying each as read or write.
func (l *lockcheck) findAccesses(b *Block, fb FuncBody) []guardedAccess {
	var out []guardedAccess
	for _, n := range b.Nodes {
		// Writes: selectors appearing as assignment LHS or inc/dec target.
		writes := map[ast.Expr]bool{}
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				writes[lhs] = true
			}
		case *ast.IncDecStmt:
			writes[s.X] = true
		}
		InspectShallow(n, func(m ast.Node) bool {
			sel, isSel := m.(*ast.SelectorExpr)
			if !isSel {
				return true
			}
			fieldObj, isVar := l.pass.Info.Uses[sel.Sel].(*types.Var)
			if !isVar {
				return true
			}
			mu, guarded := l.guards[fieldObj]
			if !guarded {
				return true
			}
			base := l.baseObject(sel.X)
			if base == nil || !interestingBase(base, fb, l.pass.Info) {
				return true
			}
			out = append(out, guardedAccess{
				pos:   sel.Pos(),
				key:   lockKey{base: base, mu: mu},
				field: fieldObj,
				write: writes[sel],
			})
			return true
		})
	}
	return out
}

func runLockCheck(pass *Pass) {
	l := &lockcheck{pass: pass, guards: collectGuards(pass)}
	if len(l.guards) == 0 {
		return
	}
	for _, fb := range FunctionsOf(pass.Files) {
		g := BuildCFG(fb.Body)
		res := Solve(&FlowProblem[lockState]{
			CFG:      g,
			Entry:    lockState{},
			Join:     joinLockState,
			Equal:    equalLockState,
			Transfer: l.transferLocks,
		})
		for _, b := range g.Blocks {
			if !res.Reached[b.Index] {
				continue
			}
			// Conservative within a block: accesses are checked against the
			// block's input state, so `mu.Lock(); x.f = 1` in one block
			// needs the state AFTER the Lock. Re-walk node by node.
			st := res.In[b.Index]
			for _, n := range b.Nodes {
				oneBlock := &Block{Nodes: []ast.Node{n}}
				for _, acc := range l.findAccesses(oneBlock, fb) {
					lv, held := st[acc.key]
					switch {
					case acc.write && lv != lockWrite:
						pass.Reportf(acc.pos, "write to %s.%s guarded by %s without holding it (positional guard convention)", acc.key.base.Name(), acc.field.Name(), acc.key.mu.Name())
					case !acc.write && !held:
						pass.Reportf(acc.pos, "read of %s.%s guarded by %s without holding it (positional guard convention)", acc.key.base.Name(), acc.field.Name(), acc.key.mu.Name())
					}
				}
				st = l.transferLocks(oneBlock, st)
			}
		}
	}
}
