// Package spanend verifies that every span a function starts is ended
// on every control-flow path out of the function.
//
// A Span that never sees End is invisible: its duration never reaches
// the asiccloud_span_seconds histogram, the trace tree renders a hole
// where the region should be, and the recorder retains the span until
// truncation. The bug is quiet — nothing crashes — which is exactly
// why it belongs to a path-sensitive check rather than review memory.
//
// The analyzer recognises span creation structurally: a call to a
// method named Span, StartSpan or Child whose results include a
// pointer to a type named Span carrying an End method. From each
// creation it walks the function's control-flow graph forward
// (cfg.Walk); a path is satisfied when it executes recv.End() or
// registers defer recv.End(), and the diagnostic fires at the creation
// site when any path reaches a function exit unsatisfied. Spans that
// escape local reasoning — returned, stored into a structure, passed to
// another function, captured by a function literal, or re-assigned —
// are skipped: their End legitimately lives elsewhere, and guessing would
// trade one silent bug for a noisy false positive.
package spanend

import (
	"go/ast"
	"go/types"
	"strings"

	"asiccloud/internal/analysis"
	"asiccloud/internal/analysis/cfg"
)

// Analyzer is the spanend analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc: "flags spans (StartSpan/Span/Child) that can reach a function exit without End " +
		"on some control-flow path",
	Match: func(pkgPath string) bool {
		return strings.Contains(pkgPath, "internal/") || strings.Contains(pkgPath, "cmd/")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkFunc scans fn's statements for span creations and walks the CFG
// forward from each one.
func checkFunc(pass *analysis.Pass, fn ast.Node, body *ast.BlockStmt) {
	g := pass.CFG(fn)
	for _, b := range g.Blocks {
		for i, node := range b.Nodes {
			name, creator, ok := spanCreation(pass, node, body)
			if !ok {
				continue
			}
			if name == "" {
				pass.Reportf(node.Pos(), "span created by %s is discarded without End — assign it "+
					"and End it on every path, or chain defer .End() onto the creation", creator)
				continue
			}
			if cfg.Walk(b, i, func(n ast.Node) bool { return endCall(n, name) }) {
				pass.Reportf(node.Pos(), "span %s (from %s) can reach a function exit without %s.End() — "+
					"defer the End next to the creation or End it on every path, or //lint:ignore spanend "+
					"with the reason the span outlives this function", name, creator, name)
			}
		}
	}
}

// spanCreation matches statements that create a span and bind it to a
// plain local variable. It returns the variable's printed name and the
// creating method's name. A creation whose span lands in the blank
// identifier or is a bare expression statement returns name == "" —
// the span is provably dropped. Creations whose span escapes local
// tracking (returned, stored, passed on, captured, or re-assigned
// later) return ok == false.
func spanCreation(pass *analysis.Pass, node ast.Node, body *ast.BlockStmt) (name, creator string, ok bool) {
	switch n := node.(type) {
	case *ast.ExprStmt:
		call, isCall := ast.Unparen(n.X).(*ast.CallExpr)
		if !isCall {
			return "", "", false
		}
		fn, _, isSpan := spanCall(pass, call)
		if !isSpan {
			return "", "", false
		}
		return "", fn.Name(), true

	case *ast.AssignStmt:
		if len(n.Rhs) != 1 {
			return "", "", false
		}
		call, isCall := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		if !isCall {
			return "", "", false
		}
		fn, idx, isSpan := spanCall(pass, call)
		if !isSpan || idx >= len(n.Lhs) {
			return "", "", false
		}
		id, isIdent := n.Lhs[idx].(*ast.Ident)
		if !isIdent {
			return "", "", false // span stored into a field or index: End lives elsewhere
		}
		if id.Name == "_" {
			return "", fn.Name(), true
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil || escapes(pass, body, obj, id) {
			return "", "", false
		}
		return id.Name, fn.Name(), true
	}
	return "", "", false
}

// spanCall reports whether call creates a span: the callee is named
// Span, StartSpan or Child and some result is a *Span with an End
// method. It returns the callee and the index of the span result.
func spanCall(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, int, bool) {
	fn := pass.Callee(call)
	if fn == nil {
		return nil, 0, false
	}
	switch fn.Name() {
	case "Span", "StartSpan", "Child":
	default:
		return nil, 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, 0, false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isSpanPointer(sig.Results().At(i).Type()) {
			return fn, i, true
		}
	}
	return nil, 0, false
}

// isSpanPointer reports whether t is a pointer to a named type called
// Span whose method set includes End — the structural shape of a span,
// so the check works on any tracing vocabulary, not just internal/obs.
func isSpanPointer(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Span" {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), "End")
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// escapes reports whether obj is used anywhere in body other than as
// the receiver of a method call bound at declaration site decl. Any
// other use — returned, passed as an argument, stored into a composite
// or another variable, captured by a function literal, re-assigned —
// means End may legitimately happen beyond this function's CFG, so the
// creation is skipped rather than guessed at.
func escapes(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object, decl *ast.Ident) bool {
	var stack []ast.Node
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if esc {
			return false
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || id == decl {
			return true
		}
		if pass.Info.Uses[id] != obj && pass.Info.Defs[id] != obj {
			return true
		}
		for _, anc := range stack[:len(stack)-1] {
			if _, inLit := anc.(*ast.FuncLit); inLit {
				esc = true
				return false
			}
		}
		parent := stack[len(stack)-2]
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
			return true // receiver of s.End(), s.Child(...), s.Context()...
		}
		esc = true
		return false
	})
	return esc
}

// endCall matches `name.End()` as a plain statement or a defer.
func endCall(node ast.Node, name string) bool {
	var call *ast.CallExpr
	switch s := node.(type) {
	case *ast.ExprStmt:
		call, _ = ast.Unparen(s.X).(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
	}
	if call == nil {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	return types.ExprString(sel.X) == name
}
