package analysis

import (
	"go/ast"
	"go/types"

	"asiccloud/internal/analysis/cfg"
)

// Facts is the shared dataflow substrate one Run computes over its
// package set and hands to every Pass: per-function control-flow graphs
// (built lazily — syntax-only analyzers never pay for them) and the
// module-local call graph. It holds no analyzer-specific state: an
// analyzer's own run-wide caches live under Pass.Memo.
type Facts struct {
	cfgs      map[ast.Node]*cfg.Graph
	callgraph *cfg.CallGraph

	// memo is the open-ended run-wide store for analyzers and their
	// substrates (see Pass.Memo). Keys are caller-chosen; the framework
	// only guarantees one value per key per Run.
	memo map[any]any
}

// newFacts indexes the call graph of every package in the run. CFGs are
// built on demand by Pass.CFG.
func newFacts(pkgs []*Package) *Facts {
	f := &Facts{
		cfgs:      make(map[ast.Node]*cfg.Graph),
		callgraph: cfg.NewCallGraph(),
		memo:      make(map[any]any),
	}
	for _, pkg := range pkgs {
		f.callgraph.AddPackage(pkg.Info, pkg.Files)
	}
	return f
}

// CFG returns the control-flow graph of fn (an *ast.FuncDecl or
// *ast.FuncLit), building and memoizing it on first request.
func (p *Pass) CFG(fn ast.Node) *cfg.Graph {
	if g, ok := p.facts.cfgs[fn]; ok {
		return g
	}
	g := cfg.Build(fn)
	p.facts.cfgs[fn] = g
	return g
}

// Callee returns the named function or method call invokes, or nil for
// calls through function values, builtins and conversions.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	return cfg.Callee(p.Info, call)
}

// CallGraph returns the run-wide call graph covering every package of
// this Run (not just the Pass's own package).
func (p *Pass) CallGraph() *cfg.CallGraph {
	return p.facts.callgraph
}

// Memo returns the run-wide value stored under key, computing it with
// fn on first request. It is how analyzers and their substrates (the
// taint engine's summaries) share interprocedural caches across every
// Pass of one Run without the framework having to know their types.
// Keys follow the comparable-key discipline of context.Value: a caller
// passes a private pointer or defined type so two callers can never
// collide.
func (p *Pass) Memo(key any, fn func() any) any {
	if v, ok := p.facts.memo[key]; ok {
		return v
	}
	v := fn()
	p.facts.memo[key] = v
	return v
}
