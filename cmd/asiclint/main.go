// Command asiclint runs the repository's domain-aware static-analysis
// suite: float-comparison hygiene (floatcmp), error propagation
// (droppederr), unit documentation (unitdoc), context discipline
// (ctxflow), goroutine cancellation (goroleak), locks held across
// blocking operations (lockheld), span lifecycle on all CFG paths
// (spanend), observability naming conventions (obskeys),
// nondeterministic data reaching serialized output (detflow) and
// concurrent fan-in emitted without a canonical order (foldorder). Most
// are dataflow-aware, built on the control-flow graphs and call graph
// of internal/analysis/cfg; detflow and foldorder are interprocedural,
// propagating per-function taint summaries bounded by call depth. It is
// stdlib-only and offline — packages are parsed and type-checked by
// internal/analysis without external tooling.
//
// Usage:
//
//	asiclint [-json] [-analyzers a,b] [-list] [patterns ...]
//
// Patterns are directories, optionally ending in /... (default ./...).
// The whole suite always runs: loading the packages costs far more than
// the analyzers, and every //lint:ignore must name a suite analyzer.
// -analyzers only narrows what is reported, to the named analyzers plus
// the framework's own "lint" diagnostics about malformed directives.
// With -json the diagnostics go to stdout as one JSON document grouped
// by analyzer and to stderr as text lines, so one run gates, prints and
// leaves the report (`make lint` writes it to results/lint.json). Exit
// status: 0 clean, 1 diagnostics reported, 2 usage or load error.
// Suppress a finding with a trailing or immediately preceding
// "//lint:ignore analyzer reason" comment.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"asiccloud/internal/analysis"
	"asiccloud/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asiclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "write diagnostics as JSON grouped by analyzer to stdout, and as text to stderr")
	names := fs.String("analyzers", "", "comma-separated analyzers to report (default all); the whole suite still runs")
	list := fs.Bool("list", false, "list available analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: asiclint [-json] [-analyzers a,b] [-list] [patterns ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := suite.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	var selected []string
	if *names != "" {
		selected = strings.Split(*names, ",")
		if _, unknown := suite.ByName(selected); unknown != "" {
			available := make([]string, len(analyzers))
			for i, a := range analyzers {
				available[i] = a.Name
			}
			fmt.Fprintf(stderr, "asiclint: unknown analyzer %q; available: %s\n",
				unknown, strings.Join(available, ", "))
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "asiclint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "asiclint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "asiclint:", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "asiclint:", err)
		return 2
	}
	if selected != nil {
		diags = analysis.FilterAnalyzers(diags, selected)
	}
	text := stdout
	if *jsonOut {
		if err := analysis.WriteGroupedJSON(stdout, diags, cwd); err != nil {
			fmt.Fprintln(stderr, "asiclint:", err)
			return 2
		}
		text = stderr
	}
	if err := analysis.WriteText(text, diags, cwd); err != nil {
		fmt.Fprintln(stderr, "asiclint:", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
