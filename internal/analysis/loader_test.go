package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"asiccloud/internal/analysis"
)

// TestLoaderSkipsTestAndTaggedFiles loads the loadpkg fixture directory,
// which holds one buildable file plus three files the loader must
// ignore: a //go:build devtools file, an in-package _test.go and an
// external-package _test.go (whose loadpkg_test package name would
// break type-checking if it were parsed).
func TestLoaderSkipsTestAndTaggedFiles(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "loadpkg"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load: got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if got, want := pkg.Pkg.Name(), "loadpkg"; got != want {
		t.Errorf("package name: got %q, want %q", got, want)
	}
	if got, want := pkg.Path, "asiccloud/internal/analysis/testdata/loadpkg"; got != want {
		t.Errorf("import path: got %q, want %q", got, want)
	}
	if len(pkg.Files) != 1 {
		names := make([]string, 0, len(pkg.Files))
		for _, f := range pkg.Files {
			names = append(names, pkg.Fset.Position(f.Pos()).Filename)
		}
		t.Fatalf("loaded files: got %v, want just a.go", names)
	}
	scope := pkg.Pkg.Scope()
	if scope.Lookup("A") == nil {
		t.Error("symbol A from a.go not loaded")
	}
	for _, sym := range []string{"Tagged", "InPackageTestSymbol", "ExternalTestSymbol"} {
		if scope.Lookup(sym) != nil {
			t.Errorf("symbol %s should have been excluded by the loader", sym)
		}
	}
}

// TestLoaderRecursiveSkipsTestdata guards the expansion of a relative
// /... pattern: loaded from this directory, ./... must reach the
// analyzer packages below it but not the loadpkg fixture or any other
// package under testdata.
func TestLoaderRecursiveSkipsTestdata(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var sawCFG bool
	for _, pkg := range pkgs {
		if filepath.Base(pkg.Dir) == "loadpkg" || strings.Contains(pkg.Path, "testdata") {
			t.Errorf("recursive load descended into testdata: %s", pkg.Path)
		}
		sawCFG = sawCFG || pkg.Path == "asiccloud/internal/analysis/cfg"
	}
	if !sawCFG {
		t.Errorf("Load ./... did not descend into internal/analysis/cfg")
	}
}
