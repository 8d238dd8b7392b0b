// Package atest is the golden-file test harness for asiclint analyzers.
// Each analyzer keeps fixtures under testdata/: a <case>.go file exercising
// the analyzer (the go tool never compiles testdata, so fixtures may
// contain deliberate violations) and a <case>.golden file holding the
// expected diagnostics, one per line in file:line:col form. Run
// `go test ./internal/analysis/... -update` to regenerate goldens after an
// intentional message change.
package atest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"asiccloud/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite golden files with current analyzer output")

// Config adjusts a golden run.
type Config struct {
	// PkgPath is the import path given to the fixture package. Analyzers
	// with path-scoped behavior are tested by picking a path inside their
	// scope; defaults to "asiccloud/internal/fixture".
	PkgPath string
}

// Run type-checks testdata/<name>.go as a fixture package, applies the
// analyzer plus //lint:ignore suppression, and compares the diagnostics
// against testdata/<name>.golden.
func Run(t *testing.T, a *analysis.Analyzer, name string, cfg Config) {
	t.Helper()
	if cfg.PkgPath == "" {
		cfg.PkgPath = "asiccloud/internal/fixture"
	}
	src := filepath.Join("testdata", name+".go")
	pkg, err := analysis.CheckSource(cfg.PkgPath, []string{src})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", src, err)
	}
	// Run through the real pipeline (including suppression) but without
	// Match scoping: the fixture path already stands in for a scoped
	// package, and we want Run-level behavior identical to the CLI.
	unscoped := *a
	unscoped.Match = nil
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{&unscoped})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, src, err)
	}
	var buf bytes.Buffer
	if err := analysis.WriteText(&buf, diags, ""); err != nil {
		t.Fatalf("formatting diagnostics: %v", err)
	}
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("updating golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("%s: diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}
