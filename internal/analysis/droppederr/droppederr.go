// Package droppederr flags discarded error returns inside internal/
// packages.
//
// In the explorer's hot paths an evaluation error that is silently
// swallowed does not crash anything — it just removes a design point from
// the swept space, quietly biasing the Pareto frontier and every TCO
// figure derived from it. Errors must be handled, propagated, or
// explicitly waved through with a //lint:ignore reason.
package droppederr

import (
	"go/ast"
	"go/types"
	"strings"

	"asiccloud/internal/analysis"
)

// Analyzer is the droppederr analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "droppederr",
	Doc: "flags error returns discarded with _ or dropped by calling a function as a bare " +
		"statement inside internal/ packages; handle, return, or //lint:ignore with a reason",
	Match: func(pkgPath string) bool {
		return strings.Contains(pkgPath, "internal/")
	},
	Run: run,
}

// exempt lists callees whose error return is noise by contract: the fmt
// print family (errors only on a broken io.Writer, and our writers are
// stdout/stderr or in-memory) and the never-failing in-memory writers.
var exempt = map[string]bool{
	"fmt.Print":                      true,
	"fmt.Printf":                     true,
	"fmt.Println":                    true,
	"fmt.Fprint":                     true,
	"fmt.Fprintf":                    true,
	"fmt.Fprintln":                   true,
	"(*strings.Builder).Write":       true,
	"(*strings.Builder).WriteByte":   true,
	"(*strings.Builder).WriteRune":   true,
	"(*strings.Builder).WriteString": true,
	"(*bytes.Buffer).Write":          true,
	"(*bytes.Buffer).WriteByte":      true,
	"(*bytes.Buffer).WriteRune":      true,
	"(*bytes.Buffer).WriteString":    true,
}

func run(pass *analysis.Pass) error {
	errType := types.Universe.Lookup("error").Type()
	isErr := func(t types.Type) bool { return t != nil && types.Identical(t, errType) }

	// errResults returns the positions of error-typed results of call, or
	// nil if the call is exempt or returns no error.
	errResults := func(call *ast.CallExpr) []int {
		if name := calleeName(pass, call); name != "" && exempt[name] {
			return nil
		}
		sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
		if !ok {
			return nil // conversion or built-in
		}
		var idx []int
		for i := 0; i < sig.Results().Len(); i++ {
			if isErr(sig.Results().At(i).Type()) {
				idx = append(idx, i)
			}
		}
		return idx
	}

	checkBare := func(call *ast.CallExpr, how string) {
		if idx := errResults(call); len(idx) > 0 {
			pass.Reportf(call.Pos(), "error return of %s is dropped (%s); handle it, return it, or //lint:ignore with a reason",
				calleeLabel(pass, call), how)
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkBare(call, "call used as a bare statement")
				}
			case *ast.DeferStmt:
				checkBare(n.Call, "deferred call")
			case *ast.GoStmt:
				checkBare(n.Call, "go statement")
			case *ast.AssignStmt:
				checkAssign(pass, n, isErr, errResults)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags `_`-discarded error results in assignments, covering
// both the tuple form `v, _ := f()` and the positional form `_, _ = a, b`.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt,
	isErr func(types.Type) bool, errResults func(*ast.CallExpr) []int) {

	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Tuple assignment from one call.
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		for _, i := range errResults(call) {
			if i < len(as.Lhs) && isBlank(as.Lhs[i]) {
				pass.Reportf(as.Lhs[i].Pos(), "error result %d of %s is discarded with _; handle it, return it, or //lint:ignore with a reason",
					i, calleeLabel(pass, call))
			}
		}
		return
	}
	for i, lhs := range as.Lhs {
		if !isBlank(lhs) || i >= len(as.Rhs) {
			continue
		}
		rhs := ast.Unparen(as.Rhs[i])
		if !isErr(pass.TypeOf(rhs)) {
			continue
		}
		if call, ok := rhs.(*ast.CallExpr); ok && len(errResults(call)) == 0 {
			continue // exempt callee
		}
		pass.Reportf(lhs.Pos(), "error value is discarded with _; handle it, return it, or //lint:ignore with a reason")
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// calleeName resolves the fully-qualified name of the called function
// (e.g. "fmt.Println" or "(*strings.Builder).WriteString"), or "" when the
// callee is not a named function.
func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok {
		return ""
	}
	return fn.FullName()
}

// calleeLabel is a short human label for diagnostics: the resolved name if
// available, otherwise a generic description.
func calleeLabel(pass *analysis.Pass, call *ast.CallExpr) string {
	if name := calleeName(pass, call); name != "" {
		return name
	}
	return "function call"
}
