// Package taint is a reusable worklist-based taint/dataflow engine for
// asiclint analyzers. It casts dataflow checking — seed facts at
// declarations, push them through assignments, check them at uses — in
// the classical four-part taint vocabulary: sources introduce taint,
// propagation carries it through expressions and statements, sanitizers
// remove it, and sinks are the program points tainted values must never
// reach.
//
// The engine is built on the substrate the analysis framework already
// provides: per-function control-flow graphs (analysis.Pass.CFG) give
// the analysis flow-sensitivity — `sort.Strings(keys)` after the
// appends and before the marshal really does clean `keys`, because
// facts are propagated block by block in execution order with a
// worklist fixpoint over back edges — and the module-local call graph
// (analysis.Pass.CallGraph) gives it bounded interprocedural reach
// through memoized per-function summaries. A summary records three
// things about a callee: the taint its results carry regardless of
// arguments, which parameters flow through to its results (so a helper
// that returns its argument propagates the argument's taint), and
// which parameters reach a sink inside its body (so passing a tainted
// value to a marshaling wrapper is caught at the call site). Summaries
// are computed by running the same dataflow over the callee with its
// parameters seeded with pseudo-kinds, memoized run-wide via
// analysis.Pass.Memo, and bounded at Spec.MaxDepth hops — beyond the
// bound callees are trusted clean, which is the noise-over-soundness
// trade the suite's DESIGN.md argues for.
//
// Two refinements matter for determinism checking and are worth
// naming. First, marker kinds: iterating a map does not make the map
// nondeterministic — it makes any *sequence built from the iteration*
// nondeterministic. A Spec can therefore classify some kinds as
// markers (Spec.IsMarker): markers ride along invisibly and only
// become reportable when an accumulation point — append, an op-assign
// like `s += k`, or a self-referential rebuild `s = s + k` — promotes
// them through the Spec.Accum hook, or when a strict sink (one whose
// bytes are a canonical artifact) sees them directly. Second,
// sanitizer kind-selectivity: sorting a slice removes ordering taint
// but cannot remove a wall-clock reading's taint, so Sanitize reports
// the kinds it kills rather than scrubbing indiscriminately.
//
// Soundness bounds (deliberate, documented here once): taint does not
// flow into nested function literals from their environment (literal
// bodies are analyzed independently; the one reverse flow that matters
// — a goroutine literal mutating a captured accumulator — is modeled
// by the GoCapture hook), method receivers do not participate in
// parameter flow, package-level variables are not tracked, and
// summaries beyond MaxDepth are trusted clean. Every bound errs toward
// silence, which is the correct direction for a lint gate.
package taint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"asiccloud/internal/analysis"
)

// A Kind names a flavor of taint ("map-order", "clock"). Specs choose
// their own vocabulary; the engine only compares kinds for equality
// and asks Spec.IsMarker which ones are markers.
type Kind string

// paramKind returns the pseudo-kind that tracks flow of parameter i
// while a summary is computed. Pseudo-kinds never reach diagnostics.
func paramKind(i int) Kind { return Kind(fmt.Sprintf("param#%d", i)) }

// isParamKind reports whether k is a parameter pseudo-kind, and which
// parameter it tracks.
func isParamKind(k Kind) (int, bool) {
	var i int
	if _, err := fmt.Sscanf(string(k), "param#%d", &i); err != nil {
		return 0, false
	}
	return i, true
}

// A Source records where and how taint entered the program.
type Source struct {
	// Pos locates the source expression or statement.
	Pos token.Pos
	// Kind classifies the taint.
	Kind Kind
	// Desc is the human-readable description used in diagnostics, e.g.
	// "iteration order of map m".
	Desc string
}

// Taint is the set of sources that may reach a value — at most one
// Source per Kind (the first one found, for deterministic messages).
// A nil Taint is clean.
type Taint []Source

// has reports whether t carries kind k.
func (t Taint) has(k Kind) bool {
	for _, s := range t {
		if s.Kind == k {
			return true
		}
	}
	return false
}

// union returns t ∪ u, keeping t's source for kinds present in both.
func (t Taint) union(u Taint) Taint {
	if len(u) == 0 {
		return t
	}
	if len(t) == 0 {
		return u
	}
	out := t
	grew := false
	for _, s := range u {
		if !out.has(s.Kind) {
			if !grew {
				// Copy-on-grow so block states never alias.
				out = append(Taint(nil), t...)
				grew = true
			}
			out = append(out, s)
		}
	}
	return out
}

// add returns t with s added (no-op if the kind is already present).
func (t Taint) add(s Source) Taint { return t.union(Taint{s}) }

// equal reports whether t and u carry the same kind set.
func (t Taint) equal(u Taint) bool {
	if len(t) != len(u) {
		return false
	}
	for _, s := range t {
		if !u.has(s.Kind) {
			return false
		}
	}
	return true
}

// A Sink describes one program point tainted values must not reach.
type Sink struct {
	// Desc names the sink in diagnostics, e.g. "json.Marshal".
	Desc string
	// Args lists the argument indexes that must be clean; nil means
	// every argument.
	Args []int
	// Strict makes marker kinds reportable too. Canonical emitters are
	// strict: writing a map-iteration key into a hash is the bug class
	// this engine exists for, even though the key alone is just data.
	Strict bool
}

// A Finding is one tainted-value-reaches-sink event.
type Finding struct {
	// Pos locates the offending argument (or return value).
	Pos token.Pos
	// Sink describes where the value was headed.
	Sink string
	// Source is a representative source of the taint.
	Source Source
	// Via names the callee the sink sits inside when the flow was
	// established through a summary, or "" for a direct sink.
	Via string
}

// Ctx is the context hooks receive: the Pass the engine runs under,
// the type information of the function being analyzed (which is the
// callee's own package Info during summary computation — not the
// Pass's), and the function itself (nil while analyzing a function
// literal).
type Ctx struct {
	Pass *analysis.Pass
	Info *types.Info
	Fn   *types.Func
}

// Spec configures one taint analysis. Nil hooks are simply inert, so
// an analyzer only wires the parts it needs.
type Spec struct {
	// Name labels the spec (diagnostics, memo identity).
	Name string

	// MaxDepth bounds interprocedural summary computation, in call-graph
	// hops from the function under analysis. Zero disables summaries.
	MaxDepth int

	// IsMarker classifies kinds that only become reportable at an
	// accumulation point or a strict sink.
	IsMarker func(Kind) bool

	// SourceExpr classifies an expression as a direct source. The
	// engine consults it for call expressions and channel receives.
	SourceExpr func(c *Ctx, e ast.Expr) (Source, bool)

	// RangeSource classifies the taint iterating rng.X confers on the
	// loop's key/value variables (e.g. map iteration order).
	RangeSource func(c *Ctx, rng *ast.RangeStmt) (Source, bool)

	// GoCapture classifies the taint a `go` statement confers on obj, a
	// variable of the enclosing function that the spawned literal
	// assigns or appends to (concurrent-append ordering).
	GoCapture func(c *Ctx, g *ast.GoStmt, obj types.Object) (Source, bool)

	// Accum promotes marker taint at an accumulation point: append, an
	// op-assign, or a self-referential rebuild `s = s + k`. target is
	// the type being accumulated into (so a spec can exempt integer
	// sums, which commute exactly, while flagging slices, strings and
	// float folds, which do not); elem is the union taint of the
	// accumulated values. The hook is only consulted when elem carries
	// at least one marker kind.
	Accum func(c *Ctx, pos token.Pos, target types.Type, elem Taint) (Source, bool)

	// Sanitize reports that a call cleans some of its arguments: which
	// argument indexes, and which kinds it kills. killParams extends
	// the kill to parameter pseudo-kinds during summary computation
	// (a helper that sorts its own parameter re-cleans the caller's
	// argument flow).
	Sanitize func(c *Ctx, call *ast.CallExpr) (args []int, kills func(Kind) bool, killParams bool, ok bool)

	// SinkCall classifies a call as a sink.
	SinkCall func(c *Ctx, call *ast.CallExpr) (Sink, bool)

	// ReturnSink, when non-nil, makes the analyzed function's return
	// values sinks themselves (canonical emitters: what they return IS
	// the artifact).
	ReturnSink func(c *Ctx) (Sink, bool)
}

// Run applies the spec to every function declaration (and every nested
// function literal) of the pass's package and reports each finding
// once. Interprocedural summaries are shared run-wide, so the cost of
// following a helper is paid once no matter how many call sites it has.
func Run(pass *analysis.Pass, spec *Spec, report func(Finding)) {
	e := newEngine(pass, spec)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			e.analyzeTop(fd, fn, pass.Info, report)
			// Nested literals get their own independent analysis: their
			// sources and sinks are real even though environment taint
			// does not flow in (see the package doc's soundness bounds).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					e.analyzeTop(lit, fn, pass.Info, report)
				}
				return true
			})
		}
	}
}
