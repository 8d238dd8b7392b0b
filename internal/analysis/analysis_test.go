package analysis_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"asiccloud/internal/analysis"
)

func sampleDiags() []analysis.Diagnostic {
	return []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: "/mod/internal/thermal/lane.go", Line: 12, Column: 3},
			Analyzer: "floatcmp",
			Message:  "exact float comparison",
		},
		{
			Pos:      token.Position{Filename: "/elsewhere/other.go", Line: 1, Column: 1},
			Analyzer: "unitdoc",
			Message:  "undocumented unit",
		},
	}
}

func TestWriteTextRelativize(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteText(&buf, sampleDiags(), "/mod"); err != nil {
		t.Fatal(err)
	}
	want := "internal/thermal/lane.go:12:3: floatcmp: exact float comparison\n" +
		"/elsewhere/other.go:1:1: unitdoc: undocumented unit\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteText:\n got %q\nwant %q", got, want)
	}
}

// TestWriteJSON pins the wire form of one diagnostic inside the JSON
// report: every field present, the file relativized under the base
// directory and left absolute outside it.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteGroupedJSON(&buf, sampleDiags(), "/mod"); err != nil {
		t.Fatal(err)
	}
	type diag struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	var doc struct {
		Analyzers map[string]struct {
			Diagnostics []diag `json:"diagnostics"`
		} `json:"analyzers"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	want := map[string]diag{
		"floatcmp": {"internal/thermal/lane.go", 12, 3, "floatcmp", "exact float comparison"},
		"unitdoc":  {"/elsewhere/other.go", 1, 1, "unitdoc", "undocumented unit"},
	}
	for name, w := range want {
		got := doc.Analyzers[name].Diagnostics
		if len(got) != 1 || got[0] != w {
			t.Errorf("%s diagnostics = %+v, want [%+v]", name, got, w)
		}
	}
}

func TestWriteGroupedJSON(t *testing.T) {
	diags := append(sampleDiags(), analysis.Diagnostic{
		Pos:      token.Position{Filename: "/mod/internal/core/engine.go", Line: 7, Column: 2},
		Analyzer: "floatcmp",
		Message:  "another exact comparison",
	})
	var buf bytes.Buffer
	if err := analysis.WriteGroupedJSON(&buf, diags, "/mod"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Count     int `json:"count"`
		Analyzers map[string]struct {
			Count       int `json:"count"`
			Diagnostics []struct {
				File string `json:"file"`
				Line int    `json:"line"`
			} `json:"diagnostics"`
		} `json:"analyzers"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Count != 3 || len(doc.Analyzers) != 2 {
		t.Fatalf("want total 3 across 2 analyzers, got %d across %d", doc.Count, len(doc.Analyzers))
	}
	fc := doc.Analyzers["floatcmp"]
	if fc.Count != 2 || len(fc.Diagnostics) != 2 {
		t.Fatalf("floatcmp group = %+v, want both findings", fc)
	}
	// Input order (the flat report's file/line order) is preserved
	// within a group.
	if fc.Diagnostics[0].File != "internal/thermal/lane.go" || fc.Diagnostics[1].File != "internal/core/engine.go" {
		t.Errorf("group order mangled: %+v", fc.Diagnostics)
	}
	if ud := doc.Analyzers["unitdoc"]; ud.Count != 1 {
		t.Errorf("unitdoc group = %+v, want 1 finding", ud)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteGroupedJSON(&buf, nil, ""); err != nil {
		t.Fatal(err)
	}
	// A clean run writes an empty object, not null, so downstream
	// tooling can always range over the analyzers.
	if want := "{\n  \"count\": 0,\n  \"analyzers\": {}\n}\n"; buf.String() != want {
		t.Errorf("empty run:\n got %q\nwant %q", buf.String(), want)
	}
}

func TestLoaderResolvesModule(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath != "asiccloud" {
		t.Fatalf("module path = %q, want asiccloud", l.ModulePath)
	}
	pkgs, err := l.Load(l.ModuleRoot + "/internal/units")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "asiccloud/internal/units" {
		t.Fatalf("loaded %d packages, first %v; want exactly asiccloud/internal/units", len(pkgs), pkgs)
	}
	pkg := pkgs[0]
	if pkg.Pkg == nil || pkg.Pkg.Scope().Lookup("ApproxEqual") == nil {
		t.Errorf("type information for units is missing ApproxEqual")
	}
	if len(pkg.Files) == 0 {
		t.Errorf("no files recorded for units package")
	}
}

// TestLoaderSkipsTestdata guards the expansion of an absolute /...
// pattern: the walk must not descend into testdata directories, so the
// analyzer fixtures stay invisible to recursive loads.
func TestLoaderSkipsTestdata(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(l.ModuleRoot + "/internal/analysis/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var sawCFG bool
	for _, p := range pkgs {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("recursive load picked up fixture package %s", p.Path)
		}
		sawCFG = sawCFG || p.Path == "asiccloud/internal/analysis/cfg"
	}
	if !sawCFG {
		t.Errorf("Load .../internal/analysis/... did not descend into internal/analysis/cfg")
	}
}
