// Package goroleak flags goroutine launches with no visible cancellation
// edge.
//
// A goroutine that holds no context, no done/work channel and no
// WaitGroup cannot be stopped or awaited: when the daemon shuts down it
// either leaks (blocked forever) or races the exit path. The analyzer
// inspects every `go` statement and looks for cancellation evidence in
// the call's arguments and in the body of the spawned function — a
// context.Context value, any channel operation (a worker ranging over a
// work channel stops when the channel closes), or a sync.WaitGroup.
// Named callees are resolved through the run-wide call graph and scanned
// transitively a few hops deep, so `go s.worker()` is cleared by the
// channel receive inside worker. Deliberately fire-and-forget goroutines
// take a //lint:ignore with the lifecycle justification.
package goroleak

import (
	"go/ast"
	"go/types"
	"strings"

	"asiccloud/internal/analysis"
	"asiccloud/internal/analysis/cfg"
)

// Analyzer is the goroleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc: "flags go statements whose goroutine has no cancellation edge — no context, channel or " +
		"WaitGroup in its arguments or (transitively) its body",
	Match: func(pkgPath string) bool {
		return strings.Contains(pkgPath, "internal/") || strings.Contains(pkgPath, "cmd/")
	},
	Run: run,
}

// calleeDepth bounds the transitive body scan through the call graph.
// Two hops covers the dominant pattern (`go s.worker()` → worker →
// helper); deeper evidence is invisible at the spawn site anyway and a
// suppression with a justification reads better than a silent pass.
const calleeDepth = 3

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !hasCancellationEdge(pass, gs.Call) {
				pass.Reportf(gs.Pos(), "goroutine has no cancellation edge (no context, channel, or "+
					"WaitGroup in its arguments or body); it cannot be stopped or awaited — thread a ctx "+
					"or done channel through, or //lint:ignore with the lifecycle justification")
			}
			return true
		})
	}
	return nil
}

// hasCancellationEdge looks for cancellation evidence around one spawn:
// in the call's arguments, then in the spawned body (function literal or
// call-graph-resolved declaration, followed transitively).
func hasCancellationEdge(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isCancellationType(pass.TypeOf(arg)) {
			return true
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return bodyHasEvidence(pass.Info, lit.Body)
	}
	// A method value spawn (`go s.worker()`) cancels through its receiver
	// state just as well as through arguments; the body scan below sees
	// the receiver's channel operations, so nothing extra is needed here.
	cg := pass.CallGraph()
	if fn := pass.Callee(call); fn != nil {
		return declHasEvidence(cg, fn, calleeDepth, make(map[*types.Func]bool))
	}
	// Calls through function values resolve to nothing; the value itself
	// may be cancellation-aware, so stay quiet rather than guess.
	return true
}

// declHasEvidence scans fn's declared body for cancellation evidence,
// following named callees up to depth hops.
func declHasEvidence(cg *cfg.CallGraph, fn *types.Func, depth int, seen map[*types.Func]bool) bool {
	if seen[fn] {
		return false
	}
	seen[fn] = true
	decl := cg.DeclOf(fn)
	if decl == nil {
		// Standard-library or interface callee: its body is out of reach,
		// and flagging what we cannot see produces noise, not safety.
		return true
	}
	// A context/channel/WaitGroup parameter or receiver is itself an edge.
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && isCancellationType(recv.Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isCancellationType(sig.Params().At(i).Type()) {
			return true
		}
	}
	if decl.Body != nil {
		if info := cg.InfoOf(fn); info != nil && bodyHasEvidence(info, decl.Body) {
			return true
		}
	}
	if depth == 0 {
		return false
	}
	for _, callee := range cg.Callees(fn) {
		if declHasEvidence(cg, callee, depth-1, seen) {
			return true
		}
	}
	return false
}

// bodyHasEvidence reports whether any expression in body (including
// nested literals — a select wrapped in a closure still cancels) has a
// cancellation-capable type.
func bodyHasEvidence(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok && isCancellationType(info.TypeOf(e)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isCancellationType reports whether t can carry a cancellation signal:
// a context, any channel, or a WaitGroup.
func isCancellationType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	switch types.TypeString(t, nil) {
	case "context.Context", "sync.WaitGroup":
		return true
	}
	return false
}
