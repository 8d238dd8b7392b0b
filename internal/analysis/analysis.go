// Package analysis is a self-contained mini framework for domain-aware
// static analysis of this repository. It deliberately mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer value with a Run function
// over a typed Pass — but is built entirely on the standard library
// (go/ast, go/parser, go/token, go/types) so that the lint gate works in
// the offline build environment with zero external modules.
//
// The framework supplies five things:
//
//   - a Loader that parses and type-checks every package in the module,
//     resolving module-internal imports itself and standard-library
//     imports through the shipped GOROOT sources (load.go);
//   - the Analyzer/Pass/Diagnostic vocabulary in this file;
//   - a Runner that applies a set of analyzers to a set of packages and
//     post-filters the diagnostics through //lint:ignore suppression
//     directives (run.go, suppress.go);
//   - run-wide dataflow facts shared by all analyzers: lazily built
//     per-function control-flow graphs and a module-local call graph,
//     exposed as Pass.CFG and Pass.CallGraph (facts.go, backed by
//     internal/analysis/cfg), plus Pass.Memo, the one run-wide cache an
//     analyzer keeps its own interprocedural summaries in (the taint
//     engine's);
//   - text and JSON diagnostic formatting (the JSON form grouped by
//     analyzer) shared by cmd/asiclint and the self-test (run.go).
//
// The domain analyzers themselves live in subpackages (ctxflow, detflow,
// droppederr, floatcmp, foldorder, goroleak, lockheld, obskeys,
// spanend, unitdoc) and the curated repository-wide suite in
// internal/analysis/suite.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. It must be a single lowercase word.
	Name string

	// Doc is a one-paragraph description of what the analyzer flags and
	// why; shown by `asiclint -list`.
	Doc string

	// Match optionally restricts the analyzer to packages whose import
	// path satisfies it. A nil Match runs the analyzer everywhere. The
	// runner consults Match; tests that drive Run directly bypass it.
	Match func(pkgPath string) bool

	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// A Pass is the unit of work handed to an analyzer: one fully type-checked
// package plus a sink for diagnostics and the run-wide dataflow facts
// (per-function CFGs, the call graph and the doc index; see facts.go).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	facts  *Facts
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// HasDirective reports whether the comment group carries the given
// machine directive (e.g. "asic:canonical"). Directives are comments of
// the form "//name" with no space; CommentGroup.Text strips them, so
// the raw list is scanned.
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == name || strings.HasPrefix(text, name+" ") {
			return true
		}
	}
	return false
}
