package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file computes the per-function summaries the interprocedural
// analyzers consume, bottom-up over the call graph of callgraph.go:
//
//   - allocation summaries for allocflow: the function's intrinsic
//     allocation sites (detected syntactically over go/ast + go/types,
//     with a deliberately simple escape approximation documented in
//     DESIGN.md §12) and a propagated may-allocate bit;
//   - mutation summaries for purity: which reference-like parameters the
//     function may store through or sort in place;
//   - swallowed-error summaries for errflow: a statement-position call
//     whose error result the function silently discards.
//
// Summaries honor the escape convention at the *callee*: an allocation,
// mutation, or discard site whose line carries the matching
// //hplint:allow comment in the callee's own file is treated as
// contracted-clean and never propagates to callers — one justified
// escape at the defining line covers every call chain through it.

// AllocClass partitions allocation sites by how they are detected and
// how they compare against compiler ground truth (calibration.go).
type AllocClass int

const (
	// AllocEscape: composite literals, &T{}, make, new, and capturing
	// closures whose value escapes per the syntactic approximation. This
	// is the class calibrated against `go build -gcflags=-m`.
	AllocEscape AllocClass = iota
	// AllocGrowth: growing append and map inserts. Amortized, invisible
	// to escape analysis; excluded from calibration.
	AllocGrowth
	// AllocBoxing: interface boxing at call/assign/return sites and
	// variadic ...interface{} calls.
	AllocBoxing
	// AllocString: string concatenation and string<->[]byte/[]rune
	// conversions.
	AllocString
	// AllocExternal: calls to stdlib functions on the known-allocating
	// list (fmt.Sprintf, errors.New, sort.Slice, ...).
	AllocExternal
)

// AllocSite is one intrinsic allocation in a function body.
type AllocSite struct {
	Pos   token.Pos
	Desc  string
	Class AllocClass
}

// knownAllocating lists stdlib functions that allocate on every call.
// Calls to stdlib functions NOT on this list are assumed non-allocating
// (the analyzers enforce contracts on this module's code; the stdlib's
// own behavior is the compiler's problem). Variadic ...interface{}
// functions are additionally caught by the boxing detector.
var knownAllocating = map[string]string{
	"fmt.Sprintf":         "formats into a fresh string",
	"fmt.Sprint":          "formats into a fresh string",
	"fmt.Sprintln":        "formats into a fresh string",
	"fmt.Errorf":          "allocates an error",
	"fmt.Appendf":         "may grow its buffer",
	"errors.New":          "allocates an error",
	"errors.Join":         "allocates an error",
	"strings.Join":        "builds a fresh string",
	"strings.Repeat":      "builds a fresh string",
	"strings.Replace":     "builds a fresh string",
	"strings.ReplaceAll":  "builds a fresh string",
	"strings.Split":       "allocates a slice of strings",
	"strings.Fields":      "allocates a slice of strings",
	"strings.ToUpper":     "builds a fresh string",
	"strings.ToLower":     "builds a fresh string",
	"strconv.Itoa":        "builds a fresh string",
	"strconv.FormatInt":   "builds a fresh string",
	"strconv.FormatFloat": "builds a fresh string",
	"strconv.Quote":       "builds a fresh string",
	"sort.Slice":          "boxes the slice and builds a reflect swapper",
	"sort.SliceStable":    "boxes the slice and builds a reflect swapper",
	"runtime/debug.Stack": "allocates the stack dump",
}

// AllocSitesRaw returns the node's intrinsic allocation sites, unfiltered
// by allow comments (calibration compares these against the compiler).
func (prog *Program) AllocSitesRaw(n *Node) []AllocSite {
	if sites, ok := prog.allocSites[n]; ok {
		return sites
	}
	sites := findAllocSites(n)
	prog.allocSites[n] = sites
	return sites
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

// allocSitesEffective filters the raw sites through the node's contract
// and the positional allow comments of its own package: an allowed site
// is clean for every caller, not just at the reporting position.
func (prog *Program) allocSitesEffective(n *Node) []AllocSite {
	if n.Contracted {
		return nil
	}
	raw := prog.AllocSitesRaw(n)
	if len(raw) == 0 {
		return nil
	}
	allowed := prog.allowedLines(n.Pkg, "allocflow")
	if len(allowed) == 0 {
		return raw
	}
	var out []AllocSite
	for _, s := range raw {
		if !prog.onLine(allowed, s.Pos) {
			out = append(out, s)
		}
	}
	return out
}

// MayAlloc reports whether n may allocate: an effective intrinsic site,
// or a path through its call edges to a function that has one. The whole
// fixpoint is computed on first use (reverse propagation over the graph).
func (prog *Program) MayAlloc(n *Node) bool {
	if prog.mayAlloc == nil {
		prog.computeMayAlloc()
	}
	return prog.mayAlloc[n]
}

func (prog *Program) computeMayAlloc() {
	prog.mayAlloc = make(map[*Node]bool, len(prog.Nodes))
	callers := map[*Node][]*Node{}
	var work []*Node
	for _, n := range prog.Nodes {
		for _, e := range n.Calls {
			callers[e.Callee] = append(callers[e.Callee], n)
		}
		if len(prog.allocSitesEffective(n)) > 0 && !prog.mayAlloc[n] {
			prog.mayAlloc[n] = true
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range callers[n] {
			if prog.mayAlloc[c] || c.Contracted {
				continue
			}
			prog.mayAlloc[c] = true
			work = append(work, c)
		}
	}
}

// ---- intrinsic allocation-site detection ----

// findAllocSites scans one node's body (literals excluded — they are
// their own nodes) for intrinsic allocations.
func findAllocSites(n *Node) []AllocSite {
	info := n.Pkg.Info
	parents := parentMap(n.Body, n.Lit)
	esc := &escapeScan{info: info, parents: parents, body: n.Body, lit: n.Lit}
	var sites []AllocSite
	add := func(pos token.Pos, class AllocClass, format string, args ...any) {
		sites = append(sites, AllocSite{Pos: pos, Desc: fmt.Sprintf(format, args...), Class: class})
	}
	inspectOwn(n.Body, n.Lit, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.CallExpr:
			// Allocations building a panic argument happen while the program
			// is dying; they are irrelevant to steady-state throughput and
			// exempting them keeps guard-clause panics out of every chain.
			if isPanicCall(info, x) {
				return false
			}
			classifyCall(info, x, esc, add)
			return true
		case *ast.CompositeLit:
			t := info.Types[x].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				if esc.escapes(x) {
					add(x.Pos(), AllocEscape, "slice literal escapes")
				}
			case *types.Map:
				// Map literals always allocate the header + buckets.
				add(x.Pos(), AllocEscape, "map literal allocates")
			default:
				// By-value struct/array literals allocate only through &,
				// handled at the UnaryExpr below.
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit && esc.escapes(x) {
					add(x.Pos(), AllocEscape, "&%s{} escapes", typeLabel(info, x.X))
				}
			}
		case *ast.FuncLit:
			if capturesOuter(x, n.Body, info) && esc.escapes(x) {
				add(x.Pos(), AllocEscape, "capturing closure escapes")
			}
		case *ast.AssignStmt:
			classifyAssign(info, x, add)
		case *ast.ReturnStmt:
			classifyReturn(info, x, n, add)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.Types[x.X].Type) && info.Types[x].Value == nil {
				add(x.Pos(), AllocString, "string concatenation")
			}
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i].Pos < sites[j].Pos })
	return sites
}

// inspectOwn visits the node's own body without descending into nested
// function literals (their sites belong to their own nodes). When the
// body IS a literal's body (lit != nil), that literal itself is visited.
func inspectOwn(body *ast.BlockStmt, lit *ast.FuncLit, f func(ast.Node) bool) {
	ast.Inspect(body, func(m ast.Node) bool {
		if fl, ok := m.(*ast.FuncLit); ok && (lit == nil || fl != lit) {
			f(fl)        // the creation is the enclosing function's site...
			return false // ...but its body belongs to the literal's node
		}
		return f(m)
	})
}

// classifyCall detects make/new, conversions, known-allocating externals,
// variadic ...interface{} calls, and interface boxing at argument
// positions.
func classifyCall(info *types.Info, call *ast.CallExpr, esc *escapeScan, add func(token.Pos, AllocClass, string, ...any)) {
	// Type conversions: string <-> []byte/[]rune allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := info.Types[call.Args[0]].Type
		if from != nil {
			if isStringType(to) && isByteOrRuneSlice(from.Underlying()) {
				add(call.Pos(), AllocString, "string(%s) conversion copies", typeLabel(info, call.Args[0]))
			} else if isByteOrRuneSlice(to) && isStringType(from.Underlying()) {
				add(call.Pos(), AllocString, "%s conversion copies", types.TypeString(tv.Type, nil))
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "make":
				if esc.escapes(call) {
					add(call.Pos(), AllocEscape, "make escapes")
				}
			case "new":
				if esc.escapes(call) {
					add(call.Pos(), AllocEscape, "new(T) escapes")
				}
			case "append":
				add(call.Pos(), AllocGrowth, "append may grow the backing array")
			}
			return
		}
	}
	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil {
		key := stdlibKey(fn)
		if why, known := knownAllocating[key]; known {
			add(call.Pos(), AllocExternal, "%s %s", key, why)
		}
	}
	// Variadic ...interface{} and per-argument interface boxing.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
			if call.Ellipsis != token.NoPos && i == params.Len()-1 {
				pt = params.At(params.Len() - 1).Type() // `xs...` passes the slice itself
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt != nil && boxes(info, arg, pt) {
			add(arg.Pos(), AllocBoxing, "interface boxing of %s argument", typeLabel(info, arg))
		}
	}
}

// classifyAssign flags interface boxing on assignment and map inserts.
func classifyAssign(info *types.Info, as *ast.AssignStmt, add func(token.Pos, AllocClass, string, ...any)) {
	for _, l := range as.Lhs {
		if idx, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
			if t := info.Types[idx.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					add(l.Pos(), AllocGrowth, "map insert may grow the table")
				}
			}
		}
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, l := range as.Lhs {
		lt := info.Types[l].Type
		if lt == nil {
			if id, ok := l.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					lt = obj.Type()
				}
			}
		}
		if lt != nil && boxes(info, as.Rhs[i], lt) {
			add(as.Rhs[i].Pos(), AllocBoxing, "interface boxing of %s on assignment", typeLabel(info, as.Rhs[i]))
		}
	}
}

// classifyReturn flags interface boxing of returned values.
func classifyReturn(info *types.Info, ret *ast.ReturnStmt, n *Node, add func(token.Pos, AllocClass, string, ...any)) {
	if n.Type.Results == nil || len(ret.Results) == 0 {
		return
	}
	var resTypes []types.Type
	for _, f := range n.Type.Results.List {
		t := info.Types[f.Type].Type
		c := len(f.Names)
		if c == 0 {
			c = 1
		}
		for k := 0; k < c; k++ {
			resTypes = append(resTypes, t)
		}
	}
	if len(ret.Results) != len(resTypes) {
		return // tuple-returning call forwarded; no per-value boxing info
	}
	for i, r := range ret.Results {
		if resTypes[i] != nil && boxes(info, r, resTypes[i]) {
			add(r.Pos(), AllocBoxing, "interface boxing of returned %s", typeLabel(info, r))
		}
	}
}

// boxes reports whether storing expr into a target of type to allocates:
// the target is an interface, the expression's static type is concrete,
// and the value is not pointer-shaped (pointers fit in the interface word
// without a heap copy). Constants are skipped: the runtime interns small
// values and the noise outweighs the signal.
func boxes(info *types.Info, expr ast.Expr, to types.Type) bool {
	if to == nil || !types.IsInterface(to) {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	if tv.IsNil() || types.IsInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	if isZeroSize(tv.Type) {
		// Zero-size values (struct{}, [0]T, context-key types) box to the
		// runtime's shared zerobase pointer without allocating.
		return false
	}
	return true
}

// isPureValue reports whether t has no reference-shaped component, so
// copying a value of t severs every alias to the container it was read
// from (a string field keeps its own backing data alive, but not the
// container). Used by the escape approximation: reading a pure value out
// of a fresh allocation does not make the allocation escape.
func isPureValue(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !isPureValue(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return isPureValue(u.Elem())
	}
	return false
}

// isZeroSize reports whether t provably occupies zero bytes.
func isZeroSize(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !isZeroSize(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || isZeroSize(u.Elem())
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// isPanicCall reports whether call invokes the builtin panic.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
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

// callSignature returns the signature of the called function, if known.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// stdlibKey renders "fmt.Sprintf" / "runtime/debug.Stack" for the
// known-allocating table.
func stdlibKey(fn *types.Func) string {
	path := fn.Pkg().Path()
	if strings.Contains(path, "/") && !strings.HasPrefix(path, "runtime/") {
		return path[strings.LastIndex(path, "/")+1:] + "." + fn.Name()
	}
	return path + "." + fn.Name()
}

// typeLabel renders a short type name for messages.
func typeLabel(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return "value"
	}
	s := types.TypeString(tv.Type, func(p *types.Package) string { return p.Name() })
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

// capturesOuter reports whether lit references a variable declared in the
// enclosing function (a capturing closure — the form whose creation
// allocates; non-capturing literals compile to static functions).
func capturesOuter(lit *ast.FuncLit, encBody *ast.BlockStmt, info *types.Info) bool {
	captured := false
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if captured {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the enclosing body but outside the literal.
		if v.Pos() >= encBody.Pos() && v.Pos() < encBody.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			captured = true
		}
		return true
	})
	return captured
}

// ---- syntactic escape approximation ----

// parentMap records each AST node's parent under root. When root is a
// literal's body, lit is included so position checks stay consistent.
func parentMap(root ast.Node, lit *ast.FuncLit) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	_ = lit
	return parents
}

type escapeScan struct {
	info    *types.Info
	parents map[ast.Node]ast.Node
	body    *ast.BlockStmt
	lit     *ast.FuncLit
}

// escapes decides whether the value created by expr leaves the function:
// returned, passed to a call, stored outside a local, captured, sent, or
// bound to a local that later does any of those. Purely local use stays
// on the stack — mirroring (coarsely) what the compiler's escape
// analysis proves, which is what calibration measures.
func (s *escapeScan) escapes(expr ast.Expr) bool {
	n := ast.Node(expr)
	for {
		p := s.parents[n]
		switch pp := p.(type) {
		case *ast.ParenExpr:
			n = pp
			continue
		case *ast.UnaryExpr:
			if pp.Op == token.AND {
				n = pp
				continue
			}
			return true
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if ast.Unparen(pp.Fun) == n {
				return false // calling the literal in place: func(){...}()
			}
			if id, ok := ast.Unparen(pp.Fun).(*ast.Ident); ok {
				if b, isB := s.info.Uses[id].(*types.Builtin); isB {
					switch b.Name() {
					case "len", "cap", "copy", "delete", "clear":
						return false
					case "append":
						return true // appended into someone else's backing array
					}
				}
			}
			return true
		case *ast.AssignStmt:
			return s.assignEscapes(pp, n.(ast.Expr))
		case *ast.ValueSpec:
			for i, v := range pp.Values {
				if v == n && i < len(pp.Names) {
					return s.varEscapes(s.info.Defs[pp.Names[i]])
				}
			}
			return true
		case *ast.ExprStmt:
			return false // value discarded
		case *ast.RangeStmt:
			return pp.X != n // ranging over a fresh value is local
		case *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr, *ast.SelectorExpr:
			// Direct elementwise use of the fresh value: the access itself
			// is local. A pure-value result (no reference component) is a
			// copy that severs the alias; otherwise the parent decides
			// (e.g. returned afterwards).
			if e, ok := p.(ast.Expr); ok && isPureValue(s.info.Types[e].Type) {
				if _, isSlice := p.(*ast.SliceExpr); !isSlice {
					return false
				}
			}
			n = p
			continue
		case nil:
			return true
		default:
			return true // conservative: sends, composite elements, key-values, ...
		}
	}
}

// assignEscapes resolves where an assignment puts the fresh value.
func (s *escapeScan) assignEscapes(as *ast.AssignStmt, val ast.Expr) bool {
	if len(as.Lhs) != len(as.Rhs) {
		return true
	}
	for i, r := range as.Rhs {
		if r != val && ast.Unparen(r) != val {
			continue
		}
		l := ast.Unparen(as.Lhs[i])
		id, ok := l.(*ast.Ident)
		if !ok {
			return true // x.f = fresh, m[k] = fresh, *p = fresh: escapes
		}
		if id.Name == "_" {
			return false
		}
		obj := s.info.Defs[id]
		if obj == nil {
			obj = s.info.Uses[id]
		}
		return s.varEscapes(obj)
	}
	return true
}

// varEscapes reports whether the local variable obj is ever used in an
// escaping position anywhere in the function: returned, passed to a
// non-builtin call, reassigned onward, address-taken, captured by a
// nested literal, sent, or stored into a non-local destination.
func (s *escapeScan) varEscapes(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return true
	}
	// Package-level or field destination: escapes by definition.
	if v.Parent() == nil || v.Parent().Parent() == types.Universe || v.IsField() {
		return true
	}
	escaped := false
	inLit := func(id *ast.Ident) bool {
		// A use inside a nested literal is a capture.
		for n := ast.Node(id); n != nil; n = s.parents[n] {
			if fl, isLit := n.(*ast.FuncLit); isLit && fl != s.lit {
				return true
			}
		}
		return false
	}
	ast.Inspect(s.body, func(m ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok || s.info.Uses[id] != obj {
			return true
		}
		if inLit(id) {
			escaped = true
			return false
		}
		if s.useEscapes(id) {
			escaped = true
			return false
		}
		return true
	})
	return escaped
}

// useEscapes classifies one identifier use of a tracked local.
func (s *escapeScan) useEscapes(id *ast.Ident) bool {
	n := ast.Node(id)
	for {
		p := s.parents[n]
		switch pp := p.(type) {
		case *ast.ParenExpr:
			n = pp
			continue
		case *ast.ReturnStmt:
			return true
		case *ast.SendStmt:
			return true
		case *ast.UnaryExpr:
			return pp.Op == token.AND
		case *ast.CallExpr:
			if ast.Unparen(pp.Fun) == n {
				return false // calling the closure locally
			}
			if fid, ok := ast.Unparen(pp.Fun).(*ast.Ident); ok {
				if b, isB := s.info.Uses[fid].(*types.Builtin); isB {
					switch b.Name() {
					case "len", "cap", "delete", "clear", "copy", "append", "min", "max":
						return false
					}
				}
			}
			return true
		case *ast.AssignStmt:
			// On the LHS: writing to/through the var, not moving it.
			for _, l := range pp.Lhs {
				if containsNode(l, n) {
					return false
				}
			}
			return true // on the RHS: the value moves onward
		case *ast.IndexExpr:
			if pp.Index == n {
				return false
			}
			if isPureValue(s.info.Types[pp].Type) {
				return false // scalar element copy: the reference stays put
			}
			n = pp
			continue
		case *ast.SelectorExpr, *ast.StarExpr:
			if e, ok := p.(ast.Expr); ok && isPureValue(s.info.Types[e].Type) {
				return false // value copy severs the alias
			}
			n = p
			continue
		case *ast.SliceExpr:
			n = p // reslicing keeps the backing array aliased
			continue
		case *ast.BinaryExpr, *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.CaseClause,
			*ast.IncDecStmt, *ast.ExprStmt, *ast.RangeStmt, *ast.BlockStmt, *ast.KeyValueExpr:
			return false
		case nil:
			return false
		default:
			return true
		}
	}
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(m ast.Node) bool {
		if m == target {
			found = true
		}
		return !found
	})
	return found
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
	if n.Obj != nil { // literals keep their effects local to their node
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
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	case *types.Interface:
		_ = u
		return false
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
	if n.Obj != nil {
		info := n.Pkg.Info
		inspectOwn(n.Body, n.Lit, func(m ast.Node) bool {
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
	}
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
