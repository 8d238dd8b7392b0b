package analysis_test

import (
	"bytes"
	"go/ast"
	"path/filepath"
	"strings"
	"testing"

	"asiccloud/internal/analysis"
)

// funcFlagger builds a toy analyzer that reports every function
// declaration, giving the suppression machinery something deterministic
// to filter.
func funcFlagger(name string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: name,
		Doc:  "test analyzer flagging every function declaration",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok {
						pass.Reportf(fd.Pos(), "function %s declared", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
}

// intFlagger reports every integer literal 42, giving the range-aware
// suppression resolution diagnostics inside composite literals, case
// clauses and multi-line statements.
func intFlagger(name string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: name,
		Doc:  "test analyzer flagging every 42 literal",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if lit, ok := n.(*ast.BasicLit); ok && lit.Value == "42" {
						pass.Reportf(lit.Pos(), "literal 42")
					}
					return true
				})
			}
			return nil
		},
	}
}

// silent is an analyzer that exists (so directives may name it) but never
// reports; a valid directive naming it must stay inert, not error.
func silent(name string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: name,
		Doc:  "test analyzer that never reports",
		Run:  func(pass *analysis.Pass) error { return nil },
	}
}

func TestSuppression(t *testing.T) {
	pkg, err := analysis.CheckSource("asiccloud/internal/fixture",
		[]string{filepath.Join("testdata", "suppress.go")})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg},
		[]*analysis.Analyzer{funcFlagger("testflag"), silent("otherflag")})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	var buf bytes.Buffer
	if err := analysis.WriteText(&buf, diags, ""); err != nil {
		t.Fatalf("formatting diagnostics: %v", err)
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")

	want := []string{
		// plain() has no directive.
		`testdata/suppress.go:6:1: testflag: function plain declared`,
		// unknown(): the ghost directive is reported and does not suppress.
		`testdata/suppress.go:16:1: lint: //lint:ignore names unknown analyzer "ghostflag"`,
		`testdata/suppress.go:17:1: testflag: function unknown declared`,
		// noReason(): reason is mandatory; directive reported, no suppression.
		`testdata/suppress.go:19:1: lint: //lint:ignore directive is missing a reason`,
		`testdata/suppress.go:20:1: testflag: function noReason declared`,
		// malformed(): no analyzer list at all.
		`testdata/suppress.go:22:1: lint: malformed //lint:ignore: expected "//lint:ignore analyzer[,analyzer] reason"`,
		`testdata/suppress.go:23:1: testflag: function malformed declared`,
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostics mismatch\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
	// standalone, trailing and comma must not appear at all.
	for _, name := range []string{"standalone", "trailing", "comma"} {
		if strings.Contains(buf.String(), name) {
			t.Errorf("suppressed function %s still reported:\n%s", name, buf.String())
		}
	}
}

// TestSuppressionStacked pins three coverage cases: two stacked
// directives (different analyzers) must BOTH extend over the construct
// below the stack; a directive above a `go` statement covers the whole
// spawned literal; a directive above a select comm clause covers the
// clause body and nothing past it.
func TestSuppressionStacked(t *testing.T) {
	pkg, err := analysis.CheckSource("asiccloud/internal/fixture",
		[]string{filepath.Join("testdata", "suppress_stack.go")})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg},
		[]*analysis.Analyzer{intFlagger("aflag"), intFlagger("bflag")})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	var buf bytes.Buffer
	if err := analysis.WriteText(&buf, diags, ""); err != nil {
		t.Fatalf("formatting diagnostics: %v", err)
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := []string{
		// goStmt and selectClause carry no bflag directive, so bflag
		// reports there; aflag only reports on the uncovered default
		// clause. Nothing from stacked() survives.
		`testdata/suppress_stack.go:16:7: bflag: literal 42`,
		`testdata/suppress_stack.go:25:13: bflag: literal 42`,
		`testdata/suppress_stack.go:27:9: aflag: literal 42`,
		`testdata/suppress_stack.go:27:9: bflag: literal 42`,
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostics mismatch\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
}

// TestSuppressionRanges pins the range-aware semantics: a directive on
// the line preceding a multi-line composite-literal element, case
// clause, or statement suppresses diagnostics anywhere inside that
// construct — and nowhere past it; a trailing directive suppresses only
// its own line.
func TestSuppressionRanges(t *testing.T) {
	pkg, err := analysis.CheckSource("asiccloud/internal/fixture",
		[]string{filepath.Join("testdata", "suppress_range.go")})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg},
		[]*analysis.Analyzer{intFlagger("intflag")})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	var buf bytes.Buffer
	if err := analysis.WriteText(&buf, diags, ""); err != nil {
		t.Fatalf("formatting diagnostics: %v", err)
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := []string{
		// The second table element carries no directive.
		`testdata/suppress_range.go:18:6: intflag: literal 42`,
		// case 2 is outside the case-1 clause the directive covers.
		`testdata/suppress_range.go:29:10: intflag: literal 42`,
		// A trailing directive does not reach the next line, and a
		// standalone directive above one does not skip past it.
		`testdata/suppress_range.go:51:7: intflag: literal 42`,
		`testdata/suppress_range.go:61:7: intflag: literal 42`,
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostics mismatch\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
}
