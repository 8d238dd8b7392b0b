package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// A directive is one parsed //lint:ignore comment.
//
// Syntax:
//
//	//lint:ignore analyzer[,analyzer...] reason
//
// A trailing directive (one that follows code on its line) suppresses
// diagnostics from the named analyzers on that line only. A standalone
// directive (alone on its line) suppresses them on its own line and on
// the entire construct that begins on the line immediately below: a
// statement, a case/select clause, a composite-literal element, a
// struct field or a const/var spec, however many lines it spans. The
// reason is mandatory: a suppression without a stated justification is
// itself reported, as is a directive naming an analyzer that does not
// exist — both keep the suppression vocabulary honest as the suite
// grows.
type directive struct {
	pos       token.Position
	endLine   int  // last source line the directive covers
	trailing  bool // the directive follows code on its line
	analyzers []string
	reason    string
}

const directivePrefix = "//lint:ignore"

// parseDirectives extracts every //lint:ignore directive from the files
// of a package and resolves each one's coverage range against the
// syntax tree (see markTrailing and resolveRanges).
func parseDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		var dirs []directive
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				// Require a space (or end) after the prefix so that e.g.
				// //lint:ignorefoo is not a directive.
				if text != "" && text[0] != ' ' && text[0] != '\t' {
					continue
				}
				fields := strings.Fields(text)
				d := directive{pos: fset.Position(c.Pos())}
				d.endLine = d.pos.Line + 1
				if len(fields) > 0 {
					d.analyzers = strings.Split(fields[0], ",")
				}
				if len(fields) > 1 {
					d.reason = strings.Join(fields[1:], " ")
				}
				dirs = append(dirs, d)
			}
		}
		markTrailing(fset, f, dirs)
		resolveRanges(fset, f, dirs)
		out = append(out, dirs...)
	}
	return out
}

// markTrailing marks each directive that follows code on its own line:
// some node of the file, other than a comment, ends on the directive's
// line at or before the directive starts. A trailing directive covers
// its own line only.
func markTrailing(fset *token.FileSet, f *ast.File, dirs []directive) {
	if len(dirs) == 0 {
		return
	}
	onLine := make(map[int][]int, len(dirs)) // line -> dirs indices
	for i := range dirs {
		onLine[dirs[i].pos.Line] = append(onLine[dirs[i].pos.Line], i)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		end := fset.Position(n.End())
		for _, i := range onLine[end.Line] {
			if end.Offset <= dirs[i].pos.Offset {
				dirs[i].trailing = true
				dirs[i].endLine = dirs[i].pos.Line
			}
		}
		return true
	})
}

// resolveRanges extends each standalone directive's coverage to the full
// extent of the construct starting on the line below it, so a directive
// preceding a multi-line statement, a case clause, or an entry of a
// composite literal reaches diagnostics reported on the construct's
// later lines; trailing directives keep their own line. Candidate
// constructs are statements (including case and select clauses, and go
// statements), const/var/type specs, struct fields, and the direct
// elements of composite literals; when several candidates begin on the
// target line the outermost one wins, so a directive above `for` covers
// the whole loop, not just its init statement. Stacked directives
// chain: when the line below a directive holds another standalone
// directive (suppressing different analyzers on the same construct),
// the target line skips past the whole stack, so every directive in it
// covers the construct underneath.
func resolveRanges(fset *token.FileSet, f *ast.File, dirs []directive) {
	if len(dirs) == 0 {
		return
	}
	dirLine := make(map[int]bool, len(dirs))
	for i := range dirs {
		if !dirs[i].trailing {
			dirLine[dirs[i].pos.Line] = true
		}
	}
	want := make(map[int][]int, len(dirs)) // target start line -> dirs indices
	for i := range dirs {
		if dirs[i].trailing {
			continue
		}
		target := dirs[i].pos.Line + 1
		for dirLine[target] {
			target++
		}
		want[target] = append(want[target], i)
	}
	consider := func(n ast.Node) {
		start := fset.Position(n.Pos()).Line
		for _, i := range want[start] {
			if end := fset.Position(n.End()).Line; end > dirs[i].endLine {
				dirs[i].endLine = end
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				consider(elt)
			}
		case ast.Stmt:
			consider(n)
		case ast.Spec:
			consider(n)
		case *ast.Field:
			consider(n)
		}
		return true
	})
}

// lintName is the pseudo-analyzer under which the framework reports
// malformed suppression directives.
const lintName = "lint"

// applySuppression validates directives against the set of known analyzer
// names and filters diags accordingly. It returns the surviving
// diagnostics plus any new diagnostics about the directives themselves.
func applySuppression(diags []Diagnostic, dirs []directive, known map[string]bool) []Diagnostic {
	// covered[file][line][analyzer] reports an active suppression.
	type key struct {
		file     string
		line     int
		analyzer string
	}
	covered := make(map[key]bool)
	var extra []Diagnostic
	for _, d := range dirs {
		if len(d.analyzers) == 0 {
			extra = append(extra, Diagnostic{Pos: d.pos, Analyzer: lintName,
				Message: "malformed //lint:ignore: expected \"//lint:ignore analyzer[,analyzer] reason\""})
			continue
		}
		if d.reason == "" {
			extra = append(extra, Diagnostic{Pos: d.pos, Analyzer: lintName,
				Message: "//lint:ignore directive is missing a reason"})
			continue
		}
		valid := true
		for _, name := range d.analyzers {
			if !known[name] {
				extra = append(extra, Diagnostic{Pos: d.pos, Analyzer: lintName,
					Message: "//lint:ignore names unknown analyzer \"" + name + "\""})
				valid = false
			}
		}
		if !valid {
			continue
		}
		// A directive covers its own line through endLine: the same
		// line for a trailing comment, the end of the construct
		// beginning on the line below for a standalone one.
		for _, name := range d.analyzers {
			for line := d.pos.Line; line <= d.endLine; line++ {
				covered[key{d.pos.Filename, line, name}] = true
			}
		}
	}
	var out []Diagnostic
	for _, diag := range diags {
		if covered[key{diag.Pos.Filename, diag.Pos.Line, diag.Analyzer}] {
			continue
		}
		out = append(out, diag)
	}
	return append(out, extra...)
}
