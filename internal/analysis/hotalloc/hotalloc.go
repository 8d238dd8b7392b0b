// Package hotalloc enforces "no allocations on hot paths" as a checked
// contract instead of a benchmark regression.
//
// A function whose doc comment carries the //asic:hotpath directive
// declares itself allocation-sensitive: it is the inner loop of a
// design-space sweep, and the ROADMAP's configs/sec budget assumes it
// runs allocation-free in steady state. The analyzer computes a
// per-function allocation summary (composite literals taking the heap,
// append growth, map/chan/slice makes, closures capturing by
// reference, interface boxing at call sites, fmt calls and string
// conversions — see summary.go) and propagates it through the
// module-local call graph from every annotated root, bounded at
// maxDepth hops. Summaries are memoized for the whole Run through
// analysis.Pass.Memo, as the taint engine memoizes its own, so the cost
// of the check is one AST walk per function no matter how many roots or
// packages reach it.
//
// Every allocation site reachable from a root is reported at the site
// itself — which is where the fix (preallocate, hoist, switch to a
// sentinel) or the justified //lint:ignore belongs — exactly once per
// run, even when several roots reach it. Standard-library callees are
// opaque: fmt and a curated allocator list are flagged at the call
// site, everything else is trusted silently (flagging what we cannot
// see produces noise, not speed).
//
// The //asic:coldpath directive is the reviewed inverse: a function so
// marked is a propagation barrier — its body and callees are not
// attributed to any hot root, because its work is amortized off the
// per-item path (validation that runs once per column, bookkeeping
// that runs once per sweep). Like //lint:ignore, the directive is a
// claim the reviewer signs, not something the analyzer verifies.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"asiccloud/internal/analysis"
)

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags allocation machinery reachable from //asic:hotpath functions through the " +
		"module-local call graph (bounded depth, memoized per-function summaries)",
	Match: func(pkgPath string) bool {
		return strings.Contains(pkgPath, "internal/") || strings.Contains(pkgPath, "cmd/")
	},
	Run: run,
}

// maxDepth bounds propagation from a hot root through the call graph.
// The repository's hot paths are shallow by design (engine → server
// column → point flow → substrate helpers is four frames); allocations
// deeper than that are invisible to this check and belong to the
// -benchmem gate. DESIGN.md states the soundness argument.
const maxDepth = 4

// isColdPath reports whether fn's declaration carries //asic:coldpath,
// the reviewed barrier that stops propagation into amortized helpers.
func isColdPath(pass *analysis.Pass, fn *types.Func) bool {
	decl := pass.CallGraph().DeclOf(fn)
	return decl != nil && analysis.HasDirective(decl.Doc, "asic:coldpath")
}

func run(pass *analysis.Pass) error {
	st := stateOf(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !analysis.HasDirective(fd.Doc, "asic:hotpath") {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			propagate(pass, st, fn)
		}
	}
	return nil
}

// pathStep is one BFS frame: a function plus the human-readable call
// path that reached it from the root.
type pathStep struct {
	fn    *types.Func
	depth int
	path  string
}

// propagate walks the call graph breadth-first from root, reporting
// every allocation site of every function within maxDepth hops. Each
// function is visited once per root (cycle-safe) and each site is
// reported once per run (state.claim), so overlapping roots stay quiet
// the second time.
func propagate(pass *analysis.Pass, st *state, root *types.Func) {
	visited := map[*types.Func]bool{root: true}
	work := []pathStep{{fn: root, depth: 0, path: root.Name()}}
	for len(work) > 0 {
		step := work[0]
		work = work[1:]
		sum := st.summaryOf(pass, step.fn)
		if sum == nil {
			continue // opaque callee: stdlib or undeclared
		}
		for _, site := range sum.sites {
			if !st.claim(site.pos) {
				continue
			}
			if step.depth == 0 {
				pass.Reportf(site.pos, "allocation in hot-path function %s: %s — preallocate or hoist "+
					"it out of the sweep, or //lint:ignore hotalloc with the amortization argument",
					step.path, site.what)
			} else {
				pass.Reportf(site.pos, "allocation reachable from hot path %s (via %s): %s — preallocate "+
					"or hoist it out of the sweep, or //lint:ignore hotalloc with the amortization argument",
					root.Name(), step.path, site.what)
			}
		}
		if step.depth == maxDepth {
			continue
		}
		for _, callee := range sum.callees {
			if visited[callee] {
				continue
			}
			visited[callee] = true
			if isColdPath(pass, callee) {
				continue
			}
			work = append(work, pathStep{
				fn:    callee,
				depth: step.depth + 1,
				path:  step.path + " → " + callee.Name(),
			})
		}
	}
}
