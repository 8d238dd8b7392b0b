package cfg_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"asiccloud/internal/analysis/cfg"
)

// buildFirst parses src and builds the CFG of the first function decl.
func buildFirst(t *testing.T, src string) (*cfg.Graph, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return cfg.Build(fd), fd
		}
	}
	t.Fatal("no function in source")
	return nil, nil
}

// reachable walks the graph from the entry block.
func reachable(g *cfg.Graph) map[*cfg.Block]bool {
	seen := make(map[*cfg.Block]bool)
	var walk func(b *cfg.Block)
	walk = func(b *cfg.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry())
	return seen
}

// nodesText renders every node of the given blocks, for containment
// assertions that do not depend on block layout.
func nodesText(blocks []*cfg.Block) string {
	var sb strings.Builder
	for _, b := range blocks {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					sb.WriteString(id.Name)
					sb.WriteString(" ")
				}
				return true
			})
		}
	}
	return sb.String()
}

func TestStraightLine(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f() {
	a := 1
	b := a + 1
	_ = b
}`)
	if len(g.Entry().Nodes) != 3 {
		t.Errorf("entry block has %d nodes, want 3", len(g.Entry().Nodes))
	}
	if len(g.Entry().Succs) != 0 {
		t.Errorf("straight-line entry should have no successors, got %d", len(g.Entry().Succs))
	}
}

func TestIfElseJoins(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(x int) int {
	if x > 0 {
		x++
	} else {
		x--
	}
	return x
}`)
	entry := g.Entry()
	if len(entry.Succs) != 2 {
		t.Fatalf("if condition should branch two ways, got %d", len(entry.Succs))
	}
	// Both branches must reach a common join holding the return.
	join := entry.Succs[0].Succs
	if len(join) != 1 || len(entry.Succs[1].Succs) != 1 || join[0] != entry.Succs[1].Succs[0] {
		t.Fatalf("then/else do not join in one block")
	}
	if len(join[0].Nodes) != 1 {
		t.Errorf("join block should hold the return, has %d nodes", len(join[0].Nodes))
	}
}

func TestForLoopBackEdgeAndMembership(t *testing.T) {
	g, fd := buildFirst(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`)
	loops := g.Loops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	blocks, ok := g.LoopBlocks(loops[0])
	if !ok || len(blocks) < 2 {
		t.Fatalf("LoopBlocks: ok=%v blocks=%d", ok, len(blocks))
	}
	txt := nodesText(blocks)
	if !strings.Contains(txt, "s") || !strings.Contains(txt, "i") {
		t.Errorf("loop blocks missing body/cond idents: %q", txt)
	}
	// The statement after the loop must not be inside the loop.
	if strings.Contains(txt, "return") {
		t.Errorf("loop membership leaked past the loop: %q", txt)
	}
	// There must be a back edge: some loop block's successor is an
	// earlier loop block.
	back := false
	for _, b := range blocks {
		for _, s := range b.Succs {
			if s.Index <= b.Index {
				back = true
			}
		}
	}
	if !back {
		t.Errorf("no back edge found in loop of %s", fd.Name.Name)
	}
}

func TestInfiniteLoopHasNoExitFromHead(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f() {
	for {
		g()
	}
}
func g() {}`)
	loops := g.Loops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	blocks, _ := g.LoopBlocks(loops[0])
	head := blocks[0]
	for _, s := range head.Succs {
		inLoop := false
		for _, b := range blocks {
			if s == b {
				inLoop = true
			}
		}
		if !inLoop {
			t.Errorf("for{} head must only enter the body, found exit edge to block %d", s.Index)
		}
	}
}

func TestBreakLeavesLoop(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(n int) {
	for {
		if n > 0 {
			break
		}
		n++
	}
	n = 0
}`)
	loops := g.Loops()
	blocks, _ := g.LoopBlocks(loops[0])
	inLoop := make(map[*cfg.Block]bool)
	for _, b := range blocks {
		inLoop[b] = true
	}
	// Some block in the loop must edge out of the loop (the break).
	exits := 0
	for _, b := range blocks {
		for _, s := range b.Succs {
			if !inLoop[s] {
				exits++
			}
		}
	}
	if exits == 0 {
		t.Error("break produced no exit edge from a for{} loop")
	}
}

func TestRangeLoop(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`)
	loops := g.Loops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	if _, ok := loops[0].(*ast.RangeStmt); !ok {
		t.Errorf("loop statement is %T, want *ast.RangeStmt", loops[0])
	}
	blocks, _ := g.LoopBlocks(loops[0])
	if !strings.Contains(nodesText(blocks), "xs") {
		t.Errorf("range operand not recorded in loop head: %q", nodesText(blocks))
	}
}

func TestSwitchFanOutAndFallthrough(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(x int) int {
	switch x {
	case 1:
		x = 10
		fallthrough
	case 2:
		x = 20
	default:
		x = 30
	}
	return x
}`)
	entry := g.Entry()
	// Entry fans out to the three clause bodies; with a default there is
	// no direct edge to the join.
	if len(entry.Succs) != 3 {
		t.Fatalf("switch entry has %d successors, want 3 clauses", len(entry.Succs))
	}
	// The first clause falls through to the second: clause 1's block
	// lists clause 2's block among its successors.
	c1, c2 := entry.Succs[0], entry.Succs[1]
	found := false
	for _, s := range c1.Succs {
		if s == c2 {
			found = true
		}
	}
	if !found {
		t.Error("fallthrough edge from case 1 to case 2 missing")
	}
}

func TestSwitchWithoutDefaultCanSkip(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(x int) {
	switch x {
	case 1:
		x = 10
	}
	x = 99
}`)
	entry := g.Entry()
	if len(entry.Succs) != 2 {
		t.Fatalf("switch without default should edge to clause and join, got %d", len(entry.Succs))
	}
}

func TestSelectClauses(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case b <- 1:
		return 1
	}
}`)
	entry := g.Entry()
	if len(entry.Succs) != 2 {
		t.Fatalf("select should fan out to 2 clauses, got %d", len(entry.Succs))
	}
	// Each clause starts with its comm statement.
	for i, c := range entry.Succs {
		if len(c.Nodes) == 0 {
			t.Errorf("select clause %d recorded no comm statement", i)
		}
	}
}

func TestReturnTerminatesBlock(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(x int) int {
	if x > 0 {
		return 1
	}
	return 0
}`)
	reach := reachable(g)
	for b := range reach {
		for i, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok && i != len(b.Nodes)-1 {
				t.Errorf("return is not the last node of block %d", b.Index)
			}
		}
		if last := len(b.Nodes) - 1; last >= 0 {
			if _, ok := b.Nodes[last].(*ast.ReturnStmt); ok && len(b.Succs) != 0 {
				t.Errorf("block %d ends in return but has successors", b.Index)
			}
		}
	}
}

func TestGotoAndLabels(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(n int) int {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	return i
}`)
	// The goto must produce a cycle: some reachable block reaches an
	// earlier block.
	cycle := false
	for b := range reachable(g) {
		for _, s := range b.Succs {
			if s.Index <= b.Index {
				cycle = true
			}
		}
	}
	if !cycle {
		t.Error("goto loop produced no cycle in the CFG")
	}
}

func TestLabeledBreak(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(n int) {
outer:
	for {
		for {
			if n > 0 {
				break outer
			}
		}
	}
	n = 0
}`)
	loops := g.Loops()
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	// The outer loop (source order first) must have an exit edge even
	// though both loops are for{}: the labeled break provides it.
	blocks, _ := g.LoopBlocks(loops[0])
	inLoop := make(map[*cfg.Block]bool)
	for _, b := range blocks {
		inLoop[b] = true
	}
	exits := 0
	for _, b := range blocks {
		for _, s := range b.Succs {
			if !inLoop[s] {
				exits++
			}
		}
	}
	if exits == 0 {
		t.Error("break outer produced no exit edge")
	}
}

func TestFuncLitBodiesAreOpaque(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f() {
	go func() {
		for {
		}
	}()
}`)
	if len(g.Loops()) != 0 {
		t.Errorf("nested func literal's loop leaked into enclosing graph")
	}
	fn := g.Fn.(*ast.FuncDecl)
	var lit *ast.FuncLit
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lit = l
		}
		return true
	})
	lg := cfg.Build(lit)
	if len(lg.Loops()) != 1 {
		t.Errorf("func literal's own graph should contain its loop, got %d", len(lg.Loops()))
	}
}

func TestCallGraph(t *testing.T) {
	src := `package p

type S struct{ q chan int }

func (s *S) worker() {
	for range s.q {
	}
}

func (s *S) start() {
	go s.worker()
}

func helper() {}

func top() {
	helper()
	f := func() { helper() }
	f()
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	cg := cfg.NewCallGraph()
	cg.AddPackage(info, []*ast.File{f})

	lookup := func(name string) *types.Func {
		t.Helper()
		if obj := pkg.Scope().Lookup(name); obj != nil {
			return obj.(*types.Func)
		}
		// Method: find via the S type.
		named := pkg.Scope().Lookup("S").Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == name {
				return named.Method(i)
			}
		}
		t.Fatalf("object %s not found", name)
		return nil
	}

	start := lookup("start")
	callees := cg.Callees(start)
	if len(callees) != 1 || callees[0].Name() != "worker" {
		t.Fatalf("start's callees = %v, want [worker]", callees)
	}
	if cg.DeclOf(callees[0]) == nil {
		t.Error("worker's declaration not indexed")
	}
	// Calls from nested func literals attribute to the enclosing decl.
	top := lookup("top")
	found := false
	for _, c := range cg.Callees(top) {
		if c.Name() == "helper" {
			found = true
		}
	}
	if !found {
		t.Errorf("top's callees %v missing helper (called from literal too)", cg.Callees(top))
	}
}

func TestDeferInLoopStaysInBody(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		defer cleanup()
	}
	n = 0
}
func cleanup() {}`)
	loops := g.Loops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	blocks, _ := g.LoopBlocks(loops[0])
	// The defer executes (registers) once per iteration, so its node
	// must live inside the loop body, not be hoisted to function exit.
	if !strings.Contains(nodesText(blocks), "cleanup") {
		t.Fatalf("defer statement not recorded in loop body: %q", nodesText(blocks))
	}
	// A defer is not a terminator: the body must still carry the back
	// edge, i.e. the block holding the defer has a successor.
	for _, b := range blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok && len(b.Succs) == 0 {
				t.Errorf("block %d ends at a defer with no successors", b.Index)
			}
		}
	}
}

func TestLabeledContinueReentersOuterLoop(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue outer
			}
		}
	}
}`)
	loops := g.Loops()
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	outerBlocks, _ := g.LoopBlocks(loops[0])
	innerBlocks, _ := g.LoopBlocks(loops[1])
	inOuter := make(map[*cfg.Block]bool)
	for _, b := range outerBlocks {
		inOuter[b] = true
	}
	inInner := make(map[*cfg.Block]bool)
	for _, b := range innerBlocks {
		inInner[b] = true
	}
	// continue outer jumps from inside the inner loop to a block that
	// belongs to the outer loop but not the inner one (its post/head).
	found := false
	for _, b := range innerBlocks {
		for _, s := range b.Succs {
			if inOuter[s] && !inInner[s] {
				found = true
			}
		}
	}
	if !found {
		t.Error("continue outer produced no edge from the inner loop back into the outer loop")
	}
}

func TestSelectInsideForLoopsAndExits(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(c chan int, done chan struct{}) int {
	s := 0
	for {
		select {
		case v := <-c:
			s += v
		case <-done:
			return s
		}
	}
}`)
	loops := g.Loops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	blocks, _ := g.LoopBlocks(loops[0])
	inLoop := make(map[*cfg.Block]bool)
	for _, b := range blocks {
		inLoop[b] = true
	}
	// One select clause accumulates and loops; the return clause must
	// leave the loop even though the for{} itself has no condition.
	backEdges, exits := 0, 0
	for _, b := range blocks {
		for _, s := range b.Succs {
			if s == blocks[0] {
				backEdges++
			}
			if !inLoop[s] {
				exits++
			}
		}
	}
	if backEdges == 0 {
		t.Error("accumulating select clause produced no back edge to the loop head")
	}
	// The return terminates its block: it exits the function, not the
	// loop, so it must appear as a reachable block with no successors.
	terminated := false
	for b := range reachable(g) {
		if len(b.Nodes) > 0 {
			if _, ok := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt); ok && len(b.Succs) == 0 {
				terminated = true
			}
		}
	}
	if !terminated {
		t.Error("return inside select clause did not terminate its block")
	}
	_ = exits
}

func TestForwardGotoSkipsStatements(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(n int) int {
	if n > 0 {
		goto done
	}
	n = -n
done:
	return n
}`)
	reach := reachable(g)
	// Locate the labeled return block. The goto itself is not a node —
	// it only contributes an edge — so the test checks the shape: both
	// if-branches reach the return, and the goto branch does so without
	// passing through the skipped negation assignment.
	var returnBlock *cfg.Block
	for b := range reach {
		if len(b.Nodes) > 0 {
			if _, ok := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt); ok {
				returnBlock = b
			}
		}
	}
	if returnBlock == nil {
		t.Fatal("could not locate the labeled return block")
	}
	entry := g.Entry()
	if len(entry.Succs) != 2 {
		t.Fatalf("if around the goto should branch two ways, got %d", len(entry.Succs))
	}
	hasAssign := func(b *cfg.Block) bool {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.AssignStmt); ok {
				return true
			}
		}
		return false
	}
	reaches := func(from *cfg.Block) bool {
		seen := map[*cfg.Block]bool{}
		var walk func(b *cfg.Block) bool
		walk = func(b *cfg.Block) bool {
			if b == returnBlock {
				return true
			}
			if seen[b] {
				return false
			}
			seen[b] = true
			for _, s := range b.Succs {
				if walk(s) {
					return true
				}
			}
			return false
		}
		return walk(from)
	}
	directGoto := false
	for _, s := range entry.Succs {
		if !reaches(s) {
			t.Errorf("if-branch block %d never reaches the labeled return", s.Index)
		}
		// The goto branch holds no statements of its own (the goto is
		// edge-only) and must jump straight to the return block.
		if !hasAssign(s) {
			for _, ss := range s.Succs {
				if ss == returnBlock {
					directGoto = true
				}
			}
		}
	}
	if !directGoto {
		t.Error("goto done does not edge directly to the labeled return block")
	}
}

// TestWalkEndsPathsAndReportsExit pins Walk's contract: it starts after
// the given node, a visit that returns true ends only its own path, a
// loop body is entered once, and the result says whether a path got to
// a function exit unended.
func TestWalkEndsPathsAndReportsExit(t *testing.T) {
	g, _ := buildFirst(t, `package p
func f(x int, xs []int) {
	before()
	if x > 0 {
		stop()
		skipped()
	}
	for range xs {
		loop()
	}
	after()
	if x < 0 {
		stop()
	} else {
		stop()
	}
	unreached()
}`)
	calls := func(stopAt string) (string, bool) {
		var seen []string
		exited := cfg.Walk(g.Entry(), 0, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return false
			}
			name := es.X.(*ast.CallExpr).Fun.(*ast.Ident).Name
			seen = append(seen, name)
			return name == stopAt
		})
		sort.Strings(seen)
		return strings.Join(seen, " "), exited
	}
	// Ending paths at stop(): the fall-through path skips the first if,
	// so loop() and after() are visited; every path then ends at a
	// stop(), so no exit is reached and unreached() is never visited.
	got, exited := calls("stop")
	if want := "after loop stop stop stop"; got != want {
		t.Errorf("visited %q, want %q", got, want)
	}
	if exited {
		t.Error("Walk reported an exit although every path ends at stop()")
	}
	// Ending paths at after() instead visits the first if's body in
	// full and nothing past after(); the node Walk starts after,
	// before(), is never visited.
	got, exited = calls("after")
	if want := "after loop skipped stop"; got != want {
		t.Errorf("visited %q, want %q", got, want)
	}
	if exited {
		t.Error("Walk reported an exit although every path ends at after()")
	}
	// Ending no path reaches the exit through unreached().
	got, exited = calls("")
	if !exited || !strings.Contains(got, "unreached") {
		t.Errorf("Walk without ending a path: visited %q, exited %v; want unreached() and an exit", got, exited)
	}
}
