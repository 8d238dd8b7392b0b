package suite_test

import (
	"bytes"
	"os"
	"testing"

	"asiccloud/internal/analysis"
	"asiccloud/internal/analysis/suite"
)

// TestRepoIsLintClean runs the full asiclint suite over the whole module
// and asserts zero diagnostics: the lint gate enforced by `make lint` is
// also a test, so `go test ./...` alone keeps the tree clean. Violations
// must be fixed or carry a //lint:ignore with a reason.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is slow; skipped with -short")
	}
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(l.ModuleRoot + "/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := analysis.Run(pkgs, suite.Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	if len(diags) > 0 {
		var buf bytes.Buffer
		if err := analysis.WriteText(&buf, diags, l.ModuleRoot); err != nil {
			t.Fatalf("formatting diagnostics: %v", err)
		}
		t.Errorf("asiclint found %d diagnostics; fix them or add //lint:ignore with a reason:\n%s",
			len(diags), buf.String())
	}
}

func TestByName(t *testing.T) {
	picked, unknown := suite.ByName([]string{"floatcmp", "unitdoc"})
	if unknown != "" || len(picked) != 2 {
		t.Fatalf("ByName(floatcmp, unitdoc) = %v, %q", picked, unknown)
	}
	if picked[0].Name != "floatcmp" || picked[1].Name != "unitdoc" {
		t.Errorf("ByName returned wrong analyzers: %s, %s", picked[0].Name, picked[1].Name)
	}
	if _, unknown := suite.ByName([]string{"nosuch"}); unknown != "nosuch" {
		t.Errorf("ByName(nosuch) should report the unknown name, got %q", unknown)
	}
}

func TestSuiteNamesAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range suite.Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %q must have a name and doc", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{
		"floatcmp", "droppederr", "unitdoc",
		"ctxflow", "goroleak", "lockheld",
		"spanend", "obskeys",
		"detflow", "foldorder",
	} {
		if !seen[name] {
			t.Errorf("suite is missing analyzer %s: %v", name, seen)
		}
	}
}

// TestEveryAnalyzerDirIsRegistered walks internal/analysis/ and asserts
// that each analyzer package directory contributes an analyzer to the
// suite, so a new analyzer cannot be added without being wired into the
// CLI and the lint gate. Infrastructure packages are skip-listed.
func TestEveryAnalyzerDirIsRegistered(t *testing.T) {
	infra := map[string]bool{
		"atest":    true, // golden-test harness
		"cfg":      true, // control-flow graphs
		"suite":    true, // this package
		"taint":    true, // taint/dataflow engine
		"testdata": true, // framework fixtures
	}
	registered := make(map[string]bool)
	for _, a := range suite.Analyzers() {
		registered[a.Name] = true
	}
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatalf("reading internal/analysis: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() || infra[e.Name()] {
			continue
		}
		if !registered[e.Name()] {
			t.Errorf("internal/analysis/%s is not registered in suite.Analyzers()", e.Name())
		}
	}
}
