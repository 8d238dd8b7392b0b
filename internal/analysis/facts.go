package analysis

import (
	"go/ast"
	"go/types"

	"asiccloud/internal/analysis/cfg"
)

// Facts is the shared dataflow substrate one Run computes over its
// package set and hands to every Pass: per-function control-flow graphs
// (built lazily — syntax-only analyzers never pay for them), the
// module-local call graph, and a documentation index mapping declared
// objects (struct fields, constants, variables) to their doc-comment
// text so annotation-driven analyzers (unitflow) can see declarations
// from other packages of the same Run. It holds no analyzer-specific
// state: an analyzer's own run-wide caches live under Pass.Memo.
type Facts struct {
	cfgs      map[ast.Node]*cfg.Graph
	callgraph *cfg.CallGraph
	docs      map[types.Object]string

	// memo is the open-ended run-wide store for analyzers and their
	// substrates (see Pass.Memo). Keys are caller-chosen; the framework
	// only guarantees one value per key per Run.
	memo map[any]any
}

// newFacts indexes the call graph and doc comments of every package in
// the run. CFGs are built on demand by Pass.CFG.
func newFacts(pkgs []*Package) *Facts {
	f := &Facts{
		cfgs:      make(map[ast.Node]*cfg.Graph),
		callgraph: cfg.NewCallGraph(),
		docs:      make(map[types.Object]string),
		memo:      make(map[any]any),
	}
	for _, pkg := range pkgs {
		f.callgraph.AddPackage(pkg.Info, pkg.Files)
		indexDocs(pkg, f.docs)
	}
	return f
}

// indexDocs records the doc text of struct fields, constants and
// package-level variables, keyed by their types.Object. Because the
// Loader shares one type-checker across the module, the object a
// selector resolves to in package A is pointer-identical to the one
// declared in package B, so cross-package doc lookups are exact.
func indexDocs(pkg *Package, out map[types.Object]string) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						text := field.Doc.Text() + " " + field.Comment.Text()
						for _, name := range field.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								out[obj] = text
							}
						}
					}
				case *ast.ValueSpec:
					text := spec.Doc.Text() + " " + spec.Comment.Text()
					if len(gd.Specs) == 1 {
						text += " " + gd.Doc.Text()
					}
					for _, name := range spec.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							out[obj] = text
						}
					}
				}
			}
		}
	}
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

// DocOf returns the doc-comment text recorded for a struct field,
// constant or package-level variable anywhere in the run, or "".
func (p *Pass) DocOf(obj types.Object) string {
	return p.facts.docs[obj]
}

// Memo returns the run-wide value stored under key, computing it with
// fn on first request. It is how analyzers and their substrates (the
// taint engine's summaries, hotalloc's allocation summaries) share
// interprocedural caches across every Pass of one Run without the
// framework having to know their types. Keys follow the comparable-key
// discipline of context.Value: a caller passes a private pointer or
// defined type so two callers can never collide.
func (p *Pass) Memo(key any, fn func() any) any {
	if v, ok := p.facts.memo[key]; ok {
		return v
	}
	v := fn()
	p.facts.memo[key] = v
	return v
}
