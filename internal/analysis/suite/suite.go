// Package suite assembles the repository's standard asiclint analyzer
// suite. It is the single source of truth consumed by both cmd/asiclint
// and the self-test that keeps the tree lint-clean, so the CLI and the
// test gate can never disagree about what is checked.
package suite

import (
	"asiccloud/internal/analysis"
	"asiccloud/internal/analysis/ctxflow"
	"asiccloud/internal/analysis/detflow"
	"asiccloud/internal/analysis/droppederr"
	"asiccloud/internal/analysis/floatcmp"
	"asiccloud/internal/analysis/foldorder"
	"asiccloud/internal/analysis/goroleak"
	"asiccloud/internal/analysis/lockheld"
	"asiccloud/internal/analysis/obskeys"
	"asiccloud/internal/analysis/spanend"
	"asiccloud/internal/analysis/unitdoc"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		detflow.Analyzer,
		droppederr.Analyzer,
		floatcmp.Analyzer,
		foldorder.Analyzer,
		goroleak.Analyzer,
		lockheld.Analyzer,
		obskeys.Analyzer,
		spanend.Analyzer,
		unitdoc.Analyzer,
	}
}

// ByName returns the named analyzers, or an unknown name.
func ByName(names []string) (picked []*analysis.Analyzer, unknown string) {
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, name
		}
		picked = append(picked, a)
	}
	return picked, ""
}
