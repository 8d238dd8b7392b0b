// Package unitflow propagates physical units through expressions and
// flags mixed-unit arithmetic.
//
// The repository's quantities carry their units in doc comments (the
// unitdoc analyzer enforces that) and cross scales only through the
// helpers in internal/units. That makes units statically checkable: a
// declaration documented "in W" is a watt source, WToMW's result is a
// megawatt, and a local initialized from either inherits the unit. The
// analyzer runs a small taint pass per file — doc-annotated fields,
// constants and package variables plus conversion-helper results seed
// units; assignments propagate them into locals (only when every
// inferable assignment to the local agrees); additions, subtractions
// and comparisons then require both operands to agree, conversion
// helpers require their argument's unit to match the conversion's
// domain, and assignments or composite-literal entries into documented
// targets require the value to match the declaration.
//
// A declaration's unit is the vocabulary token following the word "in"
// in its doc comment ("power drawn, in W"); declarations with zero or
// several such tokens stay unknown, and unknown operands are never
// flagged — the analyzer only reports provable mixes such as adding a
// milliwatt reading to a watt total. Multiplication and division
// legitimately change dimension, so their results are unknown, and a
// bare numeric literal adapts to the unit of its partner operand.
package unitflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"asiccloud/internal/analysis"
)

// Analyzer is the unitflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "unitflow",
	Doc: "flags unit-mixing arithmetic (W vs mW, mm² vs µm², Hz vs MHz, K vs °C) by propagating " +
		"doc-comment units and internal/units conversions through expressions",
	Match: func(pkgPath string) bool {
		return strings.Contains(pkgPath, "internal/")
	},
	Run: run,
}

// vocab maps doc-comment tokens to canonical unit names. Spelled-out
// ASCII variants (mm2) and typographic forms (mm²) collapse together.
var vocab = map[string]string{
	"W": "W", "mW": "mW", "kW": "kW", "MW": "MW",
	"Hz": "Hz", "kHz": "kHz", "MHz": "MHz", "GHz": "GHz",
	"K": "K", "°C": "°C",
	"mm²": "mm²", "mm2": "mm²",
	"µm²": "µm²", "µm2": "µm²", "um²": "µm²", "um2": "µm²",
	"m²": "m²", "m2": "m²",
	"m": "m", "mm": "mm",
	"H/s": "H/s", "kH/s": "kH/s", "MH/s": "MH/s", "GH/s": "GH/s", "TH/s": "TH/s",
	"m³/s": "m³/s", "m3/s": "m³/s", "CFM": "CFM",
}

// conversion describes one internal/units helper: its argument's unit
// and its result's unit. Helpers are matched by bare name with a
// float64 → float64 signature, not by import path, so fixtures (which
// may only import the standard library) exercise the same code path as
// the real package.
type conversion struct{ in, out string }

var conversions = map[string]conversion{
	"MM2ToM2":  {"mm²", "m²"},
	"M2ToMM2":  {"m²", "mm²"},
	"UM2ToMM2": {"µm²", "mm²"},
	"WToMW":    {"W", "MW"},
	"HzToMHz":  {"Hz", "MHz"},
	"MHzToHz":  {"MHz", "Hz"},
	"GHsToHs":  {"GH/s", "H/s"},
	"HsToGHs":  {"H/s", "GH/s"},
	"HsToMHs":  {"H/s", "MH/s"},
	"MToMM":    {"m", "mm"},
	"CFMToM3s": {"CFM", "m³/s"},
	"M3sToCFM": {"m³/s", "CFM"},
	"CtoK":     {"°C", "K"},
	"KtoC":     {"K", "°C"},
}

// docUnit extracts the unit a doc comment declares: the vocabulary
// token directly after the word "in", required to be unambiguous.
func docUnit(text string) string {
	fields := strings.Fields(text)
	unit := ""
	for i := 1; i < len(fields); i++ {
		if fields[i-1] != "in" {
			continue
		}
		tok := strings.Trim(fields[i], "().,;:")
		u, ok := vocab[tok]
		if !ok {
			continue
		}
		if unit != "" && unit != u {
			return "" // ambiguous declaration: trust nothing
		}
		unit = u
	}
	return unit
}

type checker struct {
	pass *analysis.Pass
	// locals holds units inferred for function-local variables; "" means
	// conflicting or no inferable assignments.
	locals map[types.Object]string
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, locals: make(map[types.Object]string)}
	// Two propagation rounds let a unit flow through a chain of local
	// assignments (w := s.PowerW; total := w) before checking.
	for round := 0; round < 2; round++ {
		for _, f := range pass.Files {
			c.collectLocals(f)
		}
	}
	for _, f := range pass.Files {
		c.check(f)
	}
	return nil
}

// collectLocals infers units for local variables from their
// assignments. A local keeps a unit only while every assignment with an
// inferable unit agrees; one conflicting store makes it unknown for the
// whole analysis (recorded as "").
func (c *checker) collectLocals(f *ast.File) {
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := c.pass.Info.Defs[id]
		if obj == nil {
			obj = c.pass.Info.Uses[id]
		}
		if !isLocalVar(c.pass, obj) {
			return
		}
		u := c.unitOf(rhs)
		if u == "" {
			return
		}
		if prev, seen := c.locals[obj]; seen && prev != u {
			c.locals[obj] = "" // disagreeing stores: unit is not stable
			return
		}
		c.locals[obj] = u
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
}

// isLocalVar reports whether obj is a function-local variable (not a
// field, parameter of unknown unit is still local but starts unknown,
// not a package-level declaration — those carry doc units instead).
func isLocalVar(pass *analysis.Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Parent() != nil && v.Parent() != pass.Pkg.Scope()
}

// unitOf resolves the unit of an expression, or "" when unknown.
func (c *checker) unitOf(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.objUnit(c.pass.Info.Uses[e])
	case *ast.SelectorExpr:
		return c.objUnit(c.pass.Info.Uses[e.Sel])
	case *ast.CallExpr:
		if conv, ok := conversionOf(c.pass, e); ok {
			return conv.out
		}
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return c.unitOf(e.X)
		}
	case *ast.BinaryExpr:
		if e.Op != token.ADD && e.Op != token.SUB {
			return "" // ×, ÷ and friends change dimension
		}
		lu, ru := c.unitOf(e.X), c.unitOf(e.Y)
		switch {
		case lu == ru:
			return lu
		case ru == "" && isNumericLit(e.Y):
			return lu
		case lu == "" && isNumericLit(e.X):
			return ru
		}
	}
	return ""
}

// objUnit resolves a referenced object's unit: an inferred local unit,
// or the doc-comment unit of a field/constant/package variable.
func (c *checker) objUnit(obj types.Object) string {
	if obj == nil {
		return ""
	}
	if u, ok := c.locals[obj]; ok {
		return u
	}
	return docUnit(c.pass.DocOf(obj))
}

// conversionOf matches a call against the internal/units helper table:
// right name, float64 → float64.
func conversionOf(pass *analysis.Pass, call *ast.CallExpr) (conversion, bool) {
	fn := pass.Callee(call)
	if fn == nil {
		return conversion{}, false
	}
	conv, ok := conversions[fn.Name()]
	if !ok {
		return conversion{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return conversion{}, false
	}
	if !isFloat64(sig.Params().At(0).Type()) || !isFloat64(sig.Results().At(0).Type()) {
		return conversion{}, false
	}
	return conv, true
}

func isFloat64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

func isNumericLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && (lit.Kind == token.INT || lit.Kind == token.FLOAT)
}

// comparable binary operators that require unit agreement.
var unitSensitiveOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.EQL: true, token.NEQ: true,
	token.LSS: true, token.LEQ: true,
	token.GTR: true, token.GEQ: true,
}

// check walks a file and reports provable unit mixes.
func (c *checker) check(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if !unitSensitiveOps[n.Op] {
				return true
			}
			lu, ru := c.unitOf(n.X), c.unitOf(n.Y)
			if lu != "" && ru != "" && lu != ru {
				c.pass.Reportf(n.OpPos, "expression mixes units %s and %s; convert through "+
					"internal/units before combining", lu, ru)
			}
		case *ast.CallExpr:
			conv, ok := conversionOf(c.pass, n)
			if !ok || len(n.Args) != 1 {
				return true
			}
			if au := c.unitOf(n.Args[0]); au != "" && au != conv.in {
				c.pass.Reportf(n.Args[0].Pos(), "argument is in %s but %s converts from %s; "+
					"this double- or mis-converts the quantity", au, callName(n), conv.in)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				c.checkStore(n.Lhs[i], n.Rhs[i])
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.pass.Info.Uses[key]
				du := docUnit(c.pass.DocOf(obj))
				if du == "" {
					continue
				}
				if vu := c.unitOf(kv.Value); vu != "" && vu != du {
					c.pass.Reportf(kv.Value.Pos(), "field %s is documented in %s but the value "+
						"is in %s; convert through internal/units", key.Name, du, vu)
				}
			}
		}
		return true
	})
}

// checkStore flags a store of a known-unit value into a doc-annotated
// target of a different unit. Locals are excluded: their units are
// inferred from these very stores.
func (c *checker) checkStore(lhs, rhs ast.Expr) {
	var obj types.Object
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj = c.pass.Info.Uses[l]
		if obj == nil {
			obj = c.pass.Info.Defs[l]
		}
	case *ast.SelectorExpr:
		obj = c.pass.Info.Uses[l.Sel]
	default:
		return
	}
	if obj == nil || isLocalVar(c.pass, obj) {
		return
	}
	du := docUnit(c.pass.DocOf(obj))
	if du == "" {
		return
	}
	if ru := c.unitOf(rhs); ru != "" && ru != du {
		c.pass.Reportf(rhs.Pos(), "%s is documented in %s but the assigned value is in %s; "+
			"convert through internal/units", obj.Name(), du, ru)
	}
}

// callName renders the called function for diagnostics.
func callName(call *ast.CallExpr) string {
	if fn := ast.Unparen(call.Fun); fn != nil {
		return types.ExprString(fn)
	}
	return "conversion"
}
