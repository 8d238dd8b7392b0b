package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"asiccloud/internal/analysis"
	"asiccloud/internal/analysis/cfg"
)

// This file holds hotalloc's interprocedural facts: per-function
// allocation summaries, memoized across the whole Run through
// analysis.Pass.Memo and shared by every Pass. A summary is computed
// once per declared function — no matter how many hot-path roots reach
// it — and records (a) the statically visible heap-allocation sites in
// the body and (b) the module-local calls the body makes, so the
// analyzer propagates "allocates" facts along the call graph without
// re-walking ASTs.
//
// The classification is deliberately syntactic: it flags constructs the
// Go compiler *may* heap-allocate (make, append growth, escaping
// composite literals, capturing closures, interface boxing, fmt calls,
// string conversions) rather than re-implementing escape analysis.
// On a path marked //asic:hotpath the contract is "no allocation
// machinery at all", so a conservative syntactic answer is the right
// one — a site that turns out to be stack-allocated still costs a
// review, and the reviewer records the verdict as a //lint:ignore
// reason the next reader can see.

// An allocSite is one statically visible potential heap allocation.
type allocSite struct {
	// pos locates the allocating expression or statement.
	pos token.Pos
	// what describes the allocation in diagnostic-ready form, e.g.
	// "make(map[string]int)" or "append may grow pts".
	what string
}

// An allocSummary is the per-function allocation fact: the body's own
// allocation sites plus its outgoing module-local calls. It is a fact
// about the declaration, independent of any caller.
type allocSummary struct {
	sites   []allocSite
	callees []*types.Func
}

// memoKey names hotalloc's run-wide state inside Pass.Memo.
type memoKey struct{}

// state is hotalloc's run-wide state: the memoized summaries (nil entry
// = declaration not in this Run) and the allocation sites already
// reported. Interprocedural reports land at the allocation site — which
// may be in a different package than the Pass — so without a run-wide
// claim, two annotated roots reaching the same site would duplicate the
// diagnostic.
type state struct {
	sums    map[*types.Func]*allocSummary
	claimed map[token.Pos]bool
}

func stateOf(pass *analysis.Pass) *state {
	return pass.Memo(memoKey{}, func() any {
		return &state{sums: make(map[*types.Func]*allocSummary), claimed: make(map[token.Pos]bool)}
	}).(*state)
}

// summaryOf returns the memoized allocation summary of fn, computing it
// on first request from the declaration the run-wide call graph
// indexed. It returns nil when fn was not declared in any package of
// this Run (standard library, interface methods): such callees are
// opaque.
func (st *state) summaryOf(pass *analysis.Pass, fn *types.Func) *allocSummary {
	if s, ok := st.sums[fn]; ok {
		return s
	}
	cg := pass.CallGraph()
	var s *allocSummary
	if decl, info := cg.DeclOf(fn), cg.InfoOf(fn); decl != nil && decl.Body != nil && info != nil {
		s = summarizeAllocs(decl, info)
	}
	st.sums[fn] = s
	return s
}

// claim records pos as reported and returns true exactly once per Run.
func (st *state) claim(pos token.Pos) bool {
	if st.claimed[pos] {
		return false
	}
	st.claimed[pos] = true
	return true
}

// allocators curates standard-library callees that allocate on every
// call, keyed by go/types full name. Module-local callees are followed
// through their own summaries instead; this list covers the bodies the
// call graph cannot see. fmt is handled wholesale in summarizeAllocs.
var allocators = map[string]string{
	"errors.New":          "errors.New allocates",
	"strconv.Itoa":        "strconv.Itoa allocates its string",
	"strconv.FormatInt":   "strconv.FormatInt allocates its string",
	"strconv.FormatFloat": "strconv.FormatFloat allocates its string",
	"strconv.Quote":       "strconv.Quote allocates its string",
	"strings.Join":        "strings.Join allocates its string",
	"strings.Repeat":      "strings.Repeat allocates its string",
	"strings.Split":       "strings.Split allocates a slice",
	"strings.Fields":      "strings.Fields allocates a slice",
	"strings.Replace":     "strings.Replace allocates its string",
	"strings.ReplaceAll":  "strings.ReplaceAll allocates its string",
	"strings.ToUpper":     "strings.ToUpper allocates its string",
	"strings.ToLower":     "strings.ToLower allocates its string",
	"sort.Slice":          "sort.Slice allocates (boxes the slice and takes a closure)",
	"sort.SliceStable":    "sort.SliceStable allocates (boxes the slice and takes a closure)",
	"time.After":          "time.After allocates a timer and channel",
	"time.NewTimer":       "time.NewTimer allocates",
	"time.NewTicker":      "time.NewTicker allocates",
	"context.WithCancel":  "context.WithCancel allocates",
	"context.WithTimeout": "context.WithTimeout allocates",
	"context.WithValue":   "context.WithValue allocates",
}

// summarizeAllocs walks one function body and classifies its allocation
// machinery. Function-literal bodies are included (their statements run
// on behalf of this function when the literal is invoked), and a
// literal that captures enclosing variables is itself a closure
// allocation site.
func summarizeAllocs(decl *ast.FuncDecl, info *types.Info) *allocSummary {
	s := &allocSummary{}
	seenCallee := make(map[*types.Func]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			s.add(n.Pos(), "goroutine launch allocates a stack")

		case *ast.FuncLit:
			if capturesLocals(n, decl, info) {
				s.add(n.Pos(), "closure captures enclosing variables (heap-allocated environment)")
			}

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.add(n.Pos(), "address of composite literal escapes to the heap")
				}
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstantString(info, n) {
				s.add(n.Pos(), "string concatenation allocates")
			}

		case *ast.CallExpr:
			summarizeCall(n, s, info, seenCallee)
		}
		return true
	})
	return s
}

func (s *allocSummary) add(pos token.Pos, what string) {
	s.sites = append(s.sites, allocSite{pos: pos, what: what})
}

// summarizeCall classifies one call expression: builtin allocators
// (make, new, append), string/byte conversions, fmt and curated stdlib
// allocators, interface boxing of its arguments, and module-local
// callees for propagation.
func summarizeCall(call *ast.CallExpr, s *allocSummary, info *types.Info, seen map[*types.Func]bool) {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				s.add(call.Pos(), fmt.Sprintf("make of %s allocates", typeLabel(info, call.Args[0])))
			case "new":
				s.add(call.Pos(), fmt.Sprintf("new(%s) allocates", typeLabel(info, call.Args[0])))
			case "append":
				s.add(call.Pos(), fmt.Sprintf("append may grow %s", types.ExprString(call.Args[0])))
			}
			return
		}
	}

	// Conversions: string([]byte), []byte(string), string([]rune)...
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			if isStringByteConversion(to, from) {
				s.add(call.Pos(), fmt.Sprintf("conversion %s(%s) copies and allocates",
					types.TypeString(to, nil), types.ExprString(call.Args[0])))
			}
		}
		return
	}

	fn := cfg.Callee(info, call)
	if fn != nil {
		full := fn.FullName()
		switch {
		case strings.HasPrefix(full, "fmt."):
			s.add(call.Pos(), full+" allocates (formatting machinery and boxed arguments)")
		case allocators[full] != "":
			s.add(call.Pos(), allocators[full])
		default:
			if !seen[fn] {
				seen[fn] = true
				s.callees = append(s.callees, fn)
			}
			boxedArgs(call, fn, s, info)
		}
		return
	}
	// Unresolvable calls (function values): still check boxing against
	// the static signature when one is known.
	if sig, ok := typeUnderlying(info.TypeOf(call.Fun)).(*types.Signature); ok {
		boxedSigArgs(call, sig, s, info)
	}
}

// boxedArgs flags concrete, non-pointer-shaped arguments passed to
// interface parameters: storing such a value in an interface heap-boxes
// it. fmt and the curated allocators are already flagged wholesale, so
// this fires for the quiet cases — a slice handed to sort.Interface, a
// struct passed as any.
func boxedArgs(call *ast.CallExpr, fn *types.Func, s *allocSummary, info *types.Info) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	boxedSigArgs(call, sig, s, info)
}

func boxedSigArgs(call *ast.CallExpr, sig *types.Signature, s *allocSummary, info *types.Info) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic():
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.(*types.Slice)
			if !ok {
				continue
			}
			if call.Ellipsis.IsValid() {
				pt = last
			} else {
				pt = sl.Elem()
			}
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isPointerShaped(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue // nil interface word, nothing boxed
		}
		// Constants box into static data; variables allocate.
		if tv, ok := info.Types[arg]; ok && tv.Value != nil {
			continue
		}
		if bl, ok := arg.(*ast.BasicLit); ok {
			_ = bl
			continue
		}
		s.add(arg.Pos(), fmt.Sprintf("interface boxing of %s (%s) allocates",
			types.ExprString(arg), types.TypeString(at, nil)))
	}
}

// capturesLocals reports whether lit references variables declared in
// the enclosing function but outside the literal — the captures that
// force a heap-allocated closure environment.
func capturesLocals(lit *ast.FuncLit, decl *ast.FuncDecl, info *types.Info) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the enclosing decl but before/outside the lit.
		if v.Pos() >= decl.Pos() && v.Pos() < decl.End() &&
			(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			captured = true
			return false
		}
		return true
	})
	return captured
}

func isNonConstantString(info *types.Info, bin *ast.BinaryExpr) bool {
	t := info.TypeOf(bin)
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return false
	}
	if tv, ok := info.Types[bin]; ok && tv.Value != nil {
		return false // constant-folded at compile time
	}
	return true
}

func isStringByteConversion(to, from types.Type) bool {
	if from == nil {
		return false
	}
	toStr := isBasicString(to)
	fromStr := isBasicString(from)
	toBytes := isByteOrRuneSlice(to)
	fromBytes := isByteOrRuneSlice(from)
	return (toStr && fromBytes) || (toBytes && fromStr)
}

func isBasicString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isPointerShaped reports whether values of t fit an interface word
// without boxing: pointers, channels, maps, funcs and unsafe pointers.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func typeUnderlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func typeLabel(info *types.Info, e ast.Expr) string {
	if t := info.TypeOf(e); t != nil {
		return types.TypeString(t, nil)
	}
	return types.ExprString(e)
}
