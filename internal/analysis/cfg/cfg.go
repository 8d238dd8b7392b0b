// Package cfg builds intraprocedural control-flow graphs and a
// lightweight call graph over the already-parsed (and, for the call
// graph, type-checked) ASTs of internal/analysis. It is the dataflow
// substrate of the asiclint suite: syntax-only per-function CFGs and
// their one forward path walk (Walk) give analyzers a notion of "every
// path from A reaches B before C" (lockheld, spanend), back edges
// identify loops precisely where textual scans cannot (ctxflow), and
// the call graph lets a spawn-site check follow a `go s.worker()` into
// the worker's body (goroleak).
//
// The CFG is deliberately modest — the shape of golang.org/x/tools/go/cfg
// rebuilt on the standard library. Each function body becomes a Graph of
// basic Blocks; a Block holds statements (and loop/branch condition
// expressions) in execution order and edges to its successors. Composite
// statements are decomposed: an *ast.IfStmt contributes its init and
// cond to the current block and fans out to the branch blocks, so the
// composite node itself never appears in Nodes. Function literals are
// opaque expressions — their bodies get their own Graphs via Build, and
// analyzers scanning Nodes must skip *ast.FuncLit subtrees.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Graph is the control-flow graph of one function body. Blocks[0] is
// the entry block. Blocks unreachable from the entry (code after an
// unconditional return, bodies of dead labels) stay in the slice with no
// predecessors, so analyzers that walk forward from reachable program
// points simply never visit them.
type Graph struct {
	// Fn is the *ast.FuncDecl or *ast.FuncLit the graph was built from.
	Fn ast.Node
	// Blocks lists every basic block in creation order; entry first.
	Blocks []*Block

	// loops maps each for/range statement to the blocks that make up its
	// head, body and post sections (not the after-loop block).
	loops map[ast.Stmt][]*Block
}

// A Block is a run of nodes executed in order with no internal control
// transfer. Nodes holds statements plus decomposed control expressions
// (an if/for/switch condition, a range operand); composite statements
// themselves do not appear.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes are the block's statements/expressions in execution order.
	Nodes []ast.Node
	// Succs are the possible control-flow successors.
	Succs []*Block
}

// Entry returns the function's entry block.
func (g *Graph) Entry() *Block { return g.Blocks[0] }

// LoopBlocks returns the blocks belonging to a for or range statement in
// the graph: the condition/head, the body and the post statement, but
// not the block control falls to after the loop exits. The second result
// is false when s is not a loop statement of this graph.
func (g *Graph) LoopBlocks(s ast.Stmt) ([]*Block, bool) {
	b, ok := g.loops[s]
	return b, ok
}

// Walk is the forward path walk of the path-sensitive analyzers. It
// visits the nodes after node i of block b, then the nodes of every
// block reachable from there, following each path until visit returns
// true for one of its nodes, which ends that path. Each successor block
// is entered at most once, depth first, the last successor of a block
// first. Walk reports whether some path reached a function exit (a
// block without successors) without visit ending it.
func Walk(b *Block, i int, visit func(ast.Node) bool) (exited bool) {
	type item struct {
		b   *Block
		idx int
	}
	visited := map[*Block]bool{}
	work := []item{{b, i + 1}}
next:
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		for _, node := range it.b.Nodes[it.idx:] {
			if visit(node) {
				continue next
			}
		}
		if len(it.b.Succs) == 0 {
			exited = true
		}
		for _, succ := range it.b.Succs {
			if !visited[succ] {
				visited[succ] = true
				work = append(work, item{succ, 0})
			}
		}
	}
	return exited
}

// Loops returns every for/range statement of the function (not of nested
// function literals) in source order.
func (g *Graph) Loops() []ast.Stmt {
	var out []ast.Stmt
	for s := range g.loops {
		out = append(out, s)
	}
	// Deterministic order for tests and diagnostics.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Pos() < out[j-1].Pos(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Build constructs the CFG for fn, which must be an *ast.FuncDecl or
// *ast.FuncLit. A FuncDecl without a body (declared in assembly) yields
// a graph with a single empty block.
func Build(fn ast.Node) *Graph {
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	default:
		panic("cfg: Build requires *ast.FuncDecl or *ast.FuncLit")
	}
	g := &Graph{Fn: fn, loops: make(map[ast.Stmt][]*Block)}
	b := &builder{g: g}
	b.cur = b.newBlock()
	if body != nil {
		b.stmts(body.List)
	}
	return g
}

// target is one entry of the break/continue resolution stacks.
type target struct {
	label string
	block *Block
}

type builder struct {
	g   *Graph
	cur *Block

	breakables   []target // for, range, switch, select
	continuables []target // for, range
	labels       map[string]*Block

	// pendingLabel carries the label of a LabeledStmt into the loop or
	// switch statement it labels, so `break L`/`continue L` resolve.
	pendingLabel string

	// fallthroughTo is the body block of the next case clause while
	// building a switch clause.
	fallthroughTo *Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump adds the edge from -> to.
func (b *builder) jump(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// terminate parks the builder on a fresh unreachable block after a
// return/break/continue/goto, so trailing dead statements attach
// somewhere without creating bogus edges.
func (b *builder) terminate() {
	b.cur = b.newBlock()
}

func (b *builder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = make(map[string]*Block)
	}
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// findBreak resolves a break target by label ("" = innermost).
func findTarget(stack []target, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		cond := b.cur
		cond.Nodes = append(cond.Nodes, s.Cond)
		thenB := b.newBlock()
		b.jump(cond, thenB)
		after := b.newBlock()
		b.cur = thenB
		b.stmts(s.Body.List)
		b.jump(b.cur, after)
		if s.Else != nil {
			elseB := b.newBlock()
			b.jump(cond, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.jump(b.cur, after)
		} else {
			b.jump(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		loopStart := len(b.g.Blocks)
		head := b.newBlock()
		b.jump(b.cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		b.jump(head, body)
		// The after block is created last so the loop's block range
		// [loopStart, after) captures head, body and post.
		contTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			b.cur = post
			b.stmt(s.Post)
			b.jump(post, head)
			contTo = post
		}
		b.cur = body
		b.pushLoop(label, contTo)
		b.stmts(s.Body.List)
		after := b.popLoop(label)
		b.jump(b.cur, contTo)
		if s.Cond != nil {
			b.jump(head, after)
		}
		b.g.loops[s] = b.g.Blocks[loopStart:after.Index:after.Index]
		b.cur = after

	case *ast.RangeStmt:
		loopStart := len(b.g.Blocks)
		head := b.newBlock()
		b.jump(b.cur, head)
		head.Nodes = append(head.Nodes, s.X)
		body := b.newBlock()
		b.jump(head, body)
		b.cur = body
		b.pushLoop(label, head)
		b.stmts(s.Body.List)
		after := b.popLoop(label)
		b.jump(b.cur, head)
		b.jump(head, after)
		b.g.loops[s] = b.g.Blocks[loopStart:after.Index:after.Index]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		b.switchClauses(label, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		b.switchClauses(label, s.Body.List, nil)

	case *ast.SelectStmt:
		b.selectClauses(label, s.Body.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(b.cur, lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			lbl := ""
			if s.Label != nil {
				lbl = s.Label.Name
			}
			if t := findTarget(b.breakables, lbl); t != nil {
				b.jump(b.cur, t)
			}
			b.terminate()
		case token.CONTINUE:
			lbl := ""
			if s.Label != nil {
				lbl = s.Label.Name
			}
			if t := findTarget(b.continuables, lbl); t != nil {
				b.jump(b.cur, t)
			}
			b.terminate()
		case token.GOTO:
			b.jump(b.cur, b.labelBlock(s.Label.Name))
			b.terminate()
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.jump(b.cur, b.fallthroughTo)
			}
			b.terminate()
		}

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.terminate()

	default:
		// Plain statements: assignments, expressions, sends, go/defer,
		// declarations, inc/dec, empty.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

func (b *builder) pushLoop(label string, cont *Block) {
	// The after block is allocated at pop time so that body blocks get
	// smaller indices; stash a placeholder via closure on pop instead.
	b.breakables = append(b.breakables, target{label: label, block: nil})
	b.continuables = append(b.continuables, target{label: label, block: cont})
	// break edges discovered before the after block exists are resolved
	// through a proxy: allocate the after block eagerly is simpler, but
	// would land it inside the loop's index range. Instead break targets
	// a dedicated join block created now but appended at pop.
	b.breakables[len(b.breakables)-1].block = b.deferredBlock()
}

// deferredBlock creates a block that is appended to Graph.Blocks later
// (at popLoop), keeping loop block ranges contiguous.
func (b *builder) deferredBlock() *Block {
	return &Block{Index: -1}
}

func (b *builder) popLoop(label string) *Block {
	after := b.breakables[len(b.breakables)-1].block
	b.breakables = b.breakables[:len(b.breakables)-1]
	b.continuables = b.continuables[:len(b.continuables)-1]
	after.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, after)
	return after
}

// switchClauses builds the clause blocks of a switch/type-switch.
func (b *builder) switchClauses(label string, clauses []ast.Stmt, _ *Block) {
	entry := b.cur
	after := b.deferredBlock()
	b.breakables = append(b.breakables, target{label: label, block: after})

	// Pre-create the body blocks so fallthrough can edge forward.
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	for i, cs := range clauses {
		clause := cs.(*ast.CaseClause)
		if clause.List == nil {
			hasDefault = true
		}
		for _, e := range clause.List {
			bodies[i].Nodes = append(bodies[i].Nodes, e)
		}
		b.jump(entry, bodies[i])
		b.cur = bodies[i]
		if i+1 < len(bodies) {
			b.fallthroughTo = bodies[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmts(clause.Body)
		b.fallthroughTo = nil
		b.jump(b.cur, after)
	}
	b.breakables = b.breakables[:len(b.breakables)-1]
	after.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, after)
	if !hasDefault {
		b.jump(entry, after)
	}
	b.cur = after
}

// selectClauses builds the clause blocks of a select.
func (b *builder) selectClauses(label string, clauses []ast.Stmt) {
	entry := b.cur
	after := b.deferredBlock()
	b.breakables = append(b.breakables, target{label: label, block: after})
	for _, cs := range clauses {
		clause := cs.(*ast.CommClause)
		body := b.newBlock()
		b.jump(entry, body)
		b.cur = body
		if clause.Comm != nil {
			b.stmt(clause.Comm)
		}
		b.stmts(clause.Body)
		b.jump(b.cur, after)
	}
	b.breakables = b.breakables[:len(b.breakables)-1]
	after.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, after)
	if len(clauses) == 0 {
		b.jump(entry, after)
	}
	b.cur = after
}
