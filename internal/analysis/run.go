package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Run applies every analyzer whose Match accepts the package to each of
// the given packages, then filters the combined findings through
// //lint:ignore directives. Directives are validated in every loaded file,
// so a stale or misspelled suppression is reported even when the analyzer
// it names found nothing. Diagnostics come back sorted by file, line,
// column, analyzer and message, each distinct finding once.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers)+1)
	known[lintName] = true
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	var dirs []directive
	facts := newFacts(pkgs)
	for _, pkg := range pkgs {
		dirs = append(dirs, parseDirectives(pkg.Fset, pkg.Files)...)
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				facts:    facts,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = applySuppression(diags, dirs, known)
	sortDiagnostics(diags)
	// An analyzer that reaches one site along two paths (lockheld, from
	// two Lock calls of one mutex) reports it once per path; one line
	// per finding is enough.
	return slices.Compact(diags), nil
}

// FilterAnalyzers keeps only diagnostics of the named analyzers, plus
// the framework's own suppression-directive diagnostics (pseudo-
// analyzer "lint"), which no analyzer selection hides. It narrows a run
// of the whole suite, so a //lint:ignore naming an analyzer outside the
// selection still names a known one.
func FilterAnalyzers(diags []Diagnostic, names []string) []Diagnostic {
	keep := map[string]bool{lintName: true}
	for _, n := range names {
		keep[n] = true
	}
	var out []Diagnostic
	for _, d := range diags {
		if keep[d.Analyzer] {
			out = append(out, d)
		}
	}
	return out
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// WriteText prints one diagnostic per line in file:line:col form, with
// filenames rewritten relative to baseDir when possible (keeps output and
// golden files stable across machines).
func WriteText(w io.Writer, diags []Diagnostic, baseDir string) error {
	for _, d := range diags {
		name := relativize(d.Pos.Filename, baseDir)
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n",
			name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message); err != nil {
			return err
		}
	}
	return nil
}

// jsonDiagnostic is the stable wire form of a Diagnostic.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteGroupedJSON emits the diagnostics bucketed by analyzer:
// {"count": N, "analyzers": {"floatcmp": {"count": n, "diagnostics":
// [...]}, ...}}. It is asiclint's one JSON form (`make lint` keeps it
// as results/lint.json): a worklist is tackled one analyzer at a time,
// so the grouping puts every finding of a kind side by side instead of
// interleaved by file. Within a group, diagnostics keep the
// file/line/column order of the text report; map keys serialize
// sorted, so output is deterministic. A clean run writes an empty
// analyzers object.
func WriteGroupedJSON(w io.Writer, diags []Diagnostic, baseDir string) error {
	type group struct {
		Count       int              `json:"count"`
		Diagnostics []jsonDiagnostic `json:"diagnostics"`
	}
	out := struct {
		Count     int               `json:"count"`
		Analyzers map[string]*group `json:"analyzers"`
	}{Count: len(diags), Analyzers: map[string]*group{}}
	for _, d := range diags {
		g := out.Analyzers[d.Analyzer]
		if g == nil {
			g = &group{}
			out.Analyzers[d.Analyzer] = g
		}
		g.Count++
		g.Diagnostics = append(g.Diagnostics, jsonDiagnostic{
			File:     relativize(d.Pos.Filename, baseDir),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func relativize(filename, baseDir string) string {
	if baseDir == "" {
		return filename
	}
	rel, err := filepath.Rel(baseDir, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return rel
}
