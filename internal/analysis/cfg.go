package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// This file implements the intra-procedural control-flow graph the
// flow-sensitive analyzers (lockcheck, errflow) run on.
// A CFG is built per function body; blocks hold statements (plus the
// condition expressions that gate their out-edges) in execution order, and
// edges follow Go's structured control flow: if/else, for, range, switch,
// type switch, select, break/continue/goto (including labeled forms),
// fallthrough and return. Panics and calls to os.Exit are not modeled as
// terminators — the analyses here are all may-analyses over normal paths,
// so the imprecision is sound for them (it only adds paths).

// Block is one basic block: a maximal straight-line sequence of nodes.
type Block struct {
	// Index is the position of the block in CFG.Blocks.
	Index int
	// Nodes are the statements (and gating condition expressions) of the
	// block in execution order. Condition expressions appear as the last
	// node of the block whose out-edges they gate.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
	// comment labels the block's role ("entry", "if.then", ...) for
	// debugging and the CFG tests.
	comment string
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block; Blocks[0] is the entry block.
	Blocks []*Block
	// Exit is the synthetic exit block: every return statement and the
	// fall-off-the-end path lead here. It holds no nodes.
	Exit *Block
}

// String renders the CFG compactly for tests and debugging.
func (g *CFG) String() string {
	var b strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&b, "b%d(%s):", blk.Index, blk.comment)
		for _, s := range blk.Succs {
			fmt.Fprintf(&b, " ->b%d", s.Index)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// InspectShallow visits the parts of a block node that execute at that
// program point, without descending into code the CFG places elsewhere:
// the body of a RangeStmt node (which stands only for its per-iteration
// header assignment) and the bodies of function literals (which execute
// at call time, not where they appear).
func InspectShallow(n ast.Node, f func(ast.Node) bool) {
	cut := func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return f(m)
	}
	if rs, ok := n.(*ast.RangeStmt); ok {
		if !f(rs) {
			return
		}
		for _, part := range []ast.Node{rs.Key, rs.Value, rs.X} {
			if part != nil {
				ast.Inspect(part, cut)
			}
		}
		return
	}
	ast.Inspect(n, cut)
}

// FuncBody is one analyzable function: a declaration or a function
// literal, with the pieces the flow analyzers need.
type FuncBody struct {
	// Name labels the function in diagnostics ("Scheduler.run", "func
	// literal in X", ...).
	Name string
	// Type carries the parameters and results.
	Type *ast.FuncType
	// Recv is the receiver field list for methods, nil otherwise.
	Recv *ast.FieldList
	// Body is the function body the CFG is built from.
	Body *ast.BlockStmt
}

// FunctionsOf collects every function declaration and function literal in
// the files, in source order. Function literals are returned as their own
// entries (the CFG of an enclosing function does not descend into them).
func FunctionsOf(files []*ast.File) []FuncBody {
	var out []FuncBody
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, FuncBody{Name: fd.Name.Name, Type: fd.Type, Recv: fd.Recv, Body: fd.Body})
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, FuncBody{Name: "func literal in " + name, Type: lit.Type, Body: lit.Body})
				}
				return true
			})
		}
		// Function literals in package-level variable initializers.
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			ast.Inspect(gd, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, FuncBody{Name: "package-level func literal", Type: lit.Type, Body: lit.Body})
				}
				return true
			})
		}
	}
	return out
}

// cfgBuilder carries the state of one CFG construction.
type cfgBuilder struct {
	cfg *CFG
	// cur is the block new nodes are appended to; nil after a terminator
	// (return, break, ...) until the next label or join point.
	cur *Block
	// breakTo / continueTo are the innermost targets of unlabeled
	// break/continue.
	breakTo, continueTo *Block
	// labels maps label names to their break/continue targets and, for
	// gotos, the block starting at the label.
	labeledBreak    map[string]*Block
	labeledContinue map[string]*Block
	gotoTarget      map[string]*Block
	// pendingGotos are goto statements seen before their label.
	pendingGotos map[string][]*Block
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:             &CFG{},
		labeledBreak:    map[string]*Block{},
		labeledContinue: map[string]*Block{},
		gotoTarget:      map[string]*Block{},
		pendingGotos:    map[string][]*Block{},
	}
	entry := b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = entry
	b.stmtList(body.List)
	// Falling off the end of the body reaches the exit.
	b.jump(b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock(comment string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), comment: comment}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// add appends a node to the current block (starting a fresh unreachable
// block if control already left, so nodes after return are still visited).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jump ends the current block with an edge to target.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, target)
	}
	b.cur = nil
}

// startBlock makes target the current block.
func (b *cfgBuilder) startBlock(target *Block) { b.cur = target }

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		cond.Succs = append(cond.Succs, then)
		var els *Block
		if s.Else != nil {
			els = b.newBlock("if.else")
			cond.Succs = append(cond.Succs, els)
		} else {
			cond.Succs = append(cond.Succs, done)
		}
		b.startBlock(then)
		b.stmt(s.Body)
		b.jump(done)
		if s.Else != nil {
			b.startBlock(els)
			b.stmt(s.Else)
			b.jump(done)
		}
		b.startBlock(done)

	case *ast.ForStmt:
		b.buildFor(s, "")

	case *ast.RangeStmt:
		b.buildRange(s, "")

	case *ast.SwitchStmt:
		b.buildSwitch(s.Init, s.Tag, s.Body, "")

	case *ast.TypeSwitchStmt:
		b.buildSwitch(s.Init, s.Assign, s.Body, "")

	case *ast.SelectStmt:
		b.buildSelect(s, "")

	case *ast.LabeledStmt:
		name := s.Label.Name
		// A label starts a fresh block so gotos can land on it.
		target := b.newBlock("label." + name)
		b.jump(target)
		b.startBlock(target)
		b.gotoTarget[name] = target
		for _, from := range b.pendingGotos[name] {
			from.Succs = append(from.Succs, target)
		}
		delete(b.pendingGotos, name)
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			b.buildFor(inner, name)
		case *ast.RangeStmt:
			b.buildRange(inner, name)
		case *ast.SwitchStmt:
			b.buildSwitch(inner.Init, inner.Tag, inner.Body, name)
		case *ast.TypeSwitchStmt:
			b.buildSwitch(inner.Init, inner.Assign, inner.Body, name)
		case *ast.SelectStmt:
			b.buildSelect(inner, name)
		default:
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			target := b.breakTo
			if s.Label != nil {
				target = b.labeledBreak[s.Label.Name]
			}
			if target != nil {
				b.jump(target)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			target := b.continueTo
			if s.Label != nil {
				target = b.labeledContinue[s.Label.Name]
			}
			if target != nil {
				b.jump(target)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			name := s.Label.Name
			if target, ok := b.gotoTarget[name]; ok {
				b.jump(target)
			} else {
				// Forward goto: record the dangling block for patching.
				if b.cur != nil {
					b.pendingGotos[name] = append(b.pendingGotos[name], b.cur)
				}
				b.cur = nil
			}
		case token.FALLTHROUGH:
			// Handled by buildSwitch via clause chaining; nothing here.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	default:
		// Plain statements: assignments, declarations, expressions, sends,
		// defers, go statements, inc/dec, empty.
		b.add(s)
	}
}

func (b *cfgBuilder) buildFor(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.jump(head)
	b.startBlock(head)
	if s.Cond != nil {
		b.add(s.Cond)
		b.jump(body)
		head.Succs = append(head.Succs, done)
	} else {
		b.jump(body)
	}
	saveBreak, saveCont := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = done, post
	if label != "" {
		b.labeledBreak[label], b.labeledContinue[label] = done, post
	}
	b.startBlock(body)
	b.stmt(s.Body)
	b.jump(post)
	if s.Post != nil {
		b.startBlock(post)
		b.stmt(s.Post)
		b.jump(head)
	}
	b.breakTo, b.continueTo = saveBreak, saveCont
	b.startBlock(done)
}

func (b *cfgBuilder) buildRange(s *ast.RangeStmt, label string) {
	// The range expression is evaluated once, then the header assigns the
	// iteration variables each round.
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.jump(head)
	b.startBlock(head)
	b.add(s) // the RangeStmt node stands for the per-iteration assignment
	b.jump(body)
	head.Succs = append(head.Succs, done)
	saveBreak, saveCont := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = done, head
	if label != "" {
		b.labeledBreak[label], b.labeledContinue[label] = done, head
	}
	b.startBlock(body)
	b.stmt(s.Body)
	b.jump(head)
	b.breakTo, b.continueTo = saveBreak, saveCont
	b.startBlock(done)
}

// buildSwitch handles both expression and type switches; tag is the tag
// expression or the type-switch assign statement (may be nil).
func (b *cfgBuilder) buildSwitch(init ast.Stmt, tag ast.Node, body *ast.BlockStmt, label string) {
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock("switch.head")
		b.startBlock(head)
	}
	done := b.newBlock("switch.done")
	saveBreak := b.breakTo
	b.breakTo = done
	if label != "" {
		b.labeledBreak[label] = done
	}
	var clauses []*ast.CaseClause
	var blocks []*Block
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, cc)
		blk := b.newBlock("switch.case")
		blocks = append(blocks, blk)
		head.Succs = append(head.Succs, blk)
	}
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	b.cur = nil
	for i, cc := range clauses {
		b.startBlock(blocks[i])
		for _, e := range cc.List {
			b.add(e)
		}
		b.stmtList(cc.Body)
		// A trailing fallthrough chains into the next clause body.
		if n := len(cc.Body); n > 0 {
			if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(blocks) {
				b.jump(blocks[i+1])
				continue
			}
		}
		b.jump(done)
	}
	b.breakTo = saveBreak
	b.startBlock(done)
}

func (b *cfgBuilder) buildSelect(s *ast.SelectStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.newBlock("select.head")
		b.startBlock(head)
	}
	done := b.newBlock("select.done")
	saveBreak := b.breakTo
	b.breakTo = done
	if label != "" {
		b.labeledBreak[label] = done
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("select.case")
		head.Succs = append(head.Succs, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jump(done)
	}
	if len(head.Succs) == 0 {
		// select{} blocks forever; still give it an edge so the CFG stays
		// connected for the solvers.
		head.Succs = append(head.Succs, done)
	}
	b.breakTo = saveBreak
	b.startBlock(done)
}
