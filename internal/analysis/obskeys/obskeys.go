// Package obskeys enforces observability hygiene: structured-log keys
// and metric names are part of the repo's query interface, and a typo
// in either breaks every dashboard and grep that depends on it —
// silently, because slog and the metrics registry accept any string.
//
// Two checks:
//
//   - slog attribute keys — in Logger.Debug/Info/Warn/Error (and the
//     Context/Log variants), the package-level slog functions, and the
//     slog.String/Int/... attr constructors — must be compile-time
//     constant snake_case strings. A non-constant key means the set of
//     keys in the logs is data-dependent and unqueryable.
//   - metric names passed to Counter/Gauge/Histogram/SetHelp on a
//     Recorder or Registry must be constant strings matching the
//     asiccloud_snake_case convention, and metric label keys must be
//     constant snake_case, mirroring the exported Prometheus surface.
//
// Both are syntactic. Logging while a mutex is held is lockheld's
// check: a log call is one more blocking operation in a lock region.
package obskeys

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"asiccloud/internal/analysis"
)

// Analyzer is the obskeys analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "obskeys",
	Doc: "flags non-constant or non-snake_case slog keys and metric names outside the " +
		"asiccloud_ convention",
	Match: func(pkgPath string) bool {
		return strings.Contains(pkgPath, "internal/") || strings.Contains(pkgPath, "cmd/")
	},
	Run: run,
}

var (
	snakeCase  = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	metricName = regexp.MustCompile(`^asiccloud_[a-z0-9]+(_[a-z0-9]+)*$`)
)

// logMethods maps slog entry points (go/types full name) to the index
// of the first key/value argument.
var logMethods = map[string]int{
	"(*log/slog.Logger).Debug":        1,
	"(*log/slog.Logger).Info":         1,
	"(*log/slog.Logger).Warn":         1,
	"(*log/slog.Logger).Error":        1,
	"(*log/slog.Logger).DebugContext": 2,
	"(*log/slog.Logger).InfoContext":  2,
	"(*log/slog.Logger).WarnContext":  2,
	"(*log/slog.Logger).ErrorContext": 2,
	"(*log/slog.Logger).Log":          3,
	"(*log/slog.Logger).With":         0,
	"log/slog.Debug":                  1,
	"log/slog.Info":                   1,
	"log/slog.Warn":                   1,
	"log/slog.Error":                  1,
	"log/slog.DebugContext":           2,
	"log/slog.InfoContext":            2,
	"log/slog.WarnContext":            2,
	"log/slog.ErrorContext":           2,
	"log/slog.Log":                    3,
	"log/slog.With":                   0,
}

// attrCtors are slog attribute constructors whose first argument is a
// key.
var attrCtors = map[string]bool{
	"log/slog.String":   true,
	"log/slog.Int":      true,
	"log/slog.Int64":    true,
	"log/slog.Uint64":   true,
	"log/slog.Float64":  true,
	"log/slog.Bool":     true,
	"log/slog.Duration": true,
	"log/slog.Time":     true,
	"log/slog.Any":      true,
	"log/slog.Group":    true,
}

// metricMethods maps metric-creating method names on Recorder/Registry
// receivers to the index of the first label key/value argument.
var metricMethods = map[string]int{
	"Counter":   1,
	"Gauge":     1,
	"Histogram": 2, // (name, bounds, labels...)
	"SetHelp":   -1,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && isMetricFactory(pass, fd) {
				// A forwarding wrapper (Recorder.Counter calling
				// Registry.Counter) doesn't originate names; its callers
				// are checked at their own sites.
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCall(pass, call)
			return true
		})
	}
	return nil
}

// checkCall classifies one call: slog entry point, attr constructor, or
// metric creation.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.Callee(call)
	if fn == nil {
		return
	}
	full := fn.FullName()
	if start, ok := logMethods[full]; ok {
		checkLogArgs(pass, call, start)
		return
	}
	if attrCtors[full] && len(call.Args) > 0 {
		checkKey(pass, call.Args[0], "slog key")
		return
	}
	if labelStart, ok := metricMethods[fn.Name()]; ok && receiverIsMetricSource(fn) {
		checkMetricCall(pass, call, labelStart)
	}
}

// checkLogArgs walks the variadic tail of a slog call. Arguments
// alternate key, value; a slog.Attr value occupies one slot on its own
// (its key was checked at the constructor).
func checkLogArgs(pass *analysis.Pass, call *ast.CallExpr, start int) {
	for i := start; i < len(call.Args); {
		arg := call.Args[i]
		if isAttr(pass.TypeOf(arg)) {
			i++
			continue
		}
		checkKey(pass, arg, "slog key")
		i += 2
	}
}

// checkKey requires expr to be a compile-time constant snake_case
// string.
func checkKey(pass *analysis.Pass, expr ast.Expr, what string) {
	key, isConst := constString(pass, expr)
	if !isConst {
		pass.Reportf(expr.Pos(), "%s %s is not a compile-time constant — dynamic keys make logs "+
			"unqueryable; use a constant key and put the variable part in the value",
			what, types.ExprString(expr))
		return
	}
	if !snakeCase.MatchString(key) {
		pass.Reportf(expr.Pos(), "%s %q is not snake_case — the repo's log schema is lower_snake "+
			"(see internal/obs); rename the key", what, key)
	}
}

// checkMetricCall validates the metric name (first argument) and any
// label keys at even offsets in the label tail.
func checkMetricCall(pass *analysis.Pass, call *ast.CallExpr, labelStart int) {
	if len(call.Args) == 0 {
		return
	}
	name, isConst := constString(pass, call.Args[0])
	switch {
	case !isConst:
		pass.Reportf(call.Args[0].Pos(), "metric name %s is not a compile-time constant — dynamic "+
			"metric names explode the registry; encode the variable part as a label",
			types.ExprString(call.Args[0]))
	case !metricName.MatchString(name):
		pass.Reportf(call.Args[0].Pos(), "metric name %q does not match the asiccloud_snake_case "+
			"convention every exported metric follows", name)
	}
	if labelStart < 0 {
		return
	}
	for i := labelStart; i < len(call.Args); i += 2 {
		checkKey(pass, call.Args[i], "metric label key")
	}
}

// isMetricFactory reports whether fd declares one of the metric-source
// methods itself (Counter/Gauge/Histogram/SetHelp on Recorder or
// Registry), whose bodies forward caller-supplied names.
func isMetricFactory(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if _, ok := metricMethods[fd.Name.Name]; !ok {
		return false
	}
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	return ok && receiverIsMetricSource(fn)
}

// receiverIsMetricSource reports whether fn is a method on a type named
// Recorder or Registry — the repo's two metric factories — so that
// unrelated Counter/Gauge methods stay out of scope.
func receiverIsMetricSource(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	switch named.Obj().Name() {
	case "Recorder", "Registry":
		return true
	}
	return false
}

// constString resolves expr to its compile-time string value.
func constString(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[ast.Unparen(expr)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isAttr reports whether t is log/slog.Attr.
func isAttr(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Attr" && obj.Pkg() != nil && obj.Pkg().Path() == "log/slog"
}
