// Package unitdoc flags exported numeric declarations in the physics
// packages whose doc comments do not name a unit.
//
// Every exported float64 field and numeric constant in the thermal, VLSI,
// DRAM, power, TCO and units packages is a physical quantity flowing into
// the TCO pipeline. Its unit (W, mm², K, m³/s, $, ... or an explicit
// "dimensionless"/"ratio") must appear in the doc comment — the field name
// alone is not enough, because name conventions drift while doc comments
// are what godoc and reviewers read.
package unitdoc

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"asiccloud/internal/analysis"
)

// PhysicsPackages lists the import-path suffixes the analyzer applies to.
// Extend this list as more packages join the quantity pipeline.
var PhysicsPackages = []string{
	"internal/units",
	"internal/thermal",
	"internal/vlsi",
	"internal/dram",
	"internal/power",
	"internal/tco",
	"internal/carbon",
}

// Analyzer is the unitdoc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "unitdoc",
	Doc: "flags exported float64 struct fields and exported numeric constants in physics " +
		"packages whose doc comment names no unit (W, mm², K, $, \"dimensionless\", ...)",
	Match: func(pkgPath string) bool {
		for _, suffix := range PhysicsPackages {
			if pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix) {
				return true
			}
		}
		return false
	},
	Run: run,
}

// Unit vocabulary. Three matchers because Go units mix case-sensitive
// single letters (W, K, V, A, J — case-insensitive matching would turn
// the article "a" into amperes), ordinary words, and symbols that have no
// word boundaries.
var (
	// Case-sensitive unit letters and compounds.
	unitLetters = regexp.MustCompile(`\b(W|K|V|A|J|N|m|s|g|kg|Pa|Hz|kHz|MHz|GHz|H/s|kH/s|MH/s|GH/s|TH/s|mW|kW|MW|kWh|K/W|W/mK|RPM|CFM|PUE|PerfUnit|GB|MB|KB|GB/s|mm|cm|nm|µm|um|ms|ns|µs|us)\b`)

	// Case-insensitive unit words.
	unitWords = regexp.MustCompile(`(?i)\b(watt|watts|volt|volts|amp|amps|ampere|amperes|joule|joules|kelvin|kelvins|celsius|pascal|pascals|newton|newtons|meter|meters|metre|metres|gram|grams|kilogram|kilograms|second|seconds|minute|minutes|hour|hours|day|days|year|years|month|months|annual|dollar|dollars|cent|cents|usd|hash|hashes|op|ops|bit|bits|byte|bytes|frame|frames|block|blocks|die|dies|chip|chips|lane|lanes|server|servers|gate|gates|flop|flops|access|accesses|number of|dimensionless|unitless|ratio|fraction|multiplier|percent|percentage|probability|count|exponent|factor|efficiency|index|degree|degrees|per)\b`)

	// Symbols and typographic units matched as plain substrings.
	unitSymbols = []string{"°C", "°F", "²", "³", "µ", "$", "%", "Ω", "·K", "·s", "/s", "/kg", "/m", "/W", "/mm"}
)

// namesUnit reports whether the comment text mentions any known unit.
// Comment text arrives with hard line breaks; they are folded to spaces so
// multi-word tokens ("number of") match across wrapped lines.
func namesUnit(text string) bool {
	text = strings.Join(strings.Fields(text), " ")
	// Drop apostrophes so possessives don't fabricate unit letters: in
	// "the model's knob", \bs\b would otherwise match the trailing s.
	text = strings.ReplaceAll(text, "'", "")
	if unitLetters.MatchString(text) || unitWords.MatchString(text) {
		return true
	}
	for _, sym := range unitSymbols {
		if strings.Contains(text, sym) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					st, ok := spec.Type.(*ast.StructType)
					if ok && spec.Name.IsExported() {
						checkStruct(pass, st)
					}
				case *ast.ValueSpec:
					if gd.Tok.String() == "const" {
						checkConst(pass, gd, spec)
					}
				}
			}
		}
	}
	return nil
}

// checkStruct flags exported float64 fields whose doc (leading comment) or
// line comment (trailing // ...) names no unit.
func checkStruct(pass *analysis.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if !isFloat64(pass.TypeOf(field.Type)) {
			continue
		}
		text := field.Doc.Text() + " " + field.Comment.Text()
		if namesUnit(text) {
			continue
		}
		for _, name := range field.Names {
			if name.IsExported() {
				pass.Reportf(name.Pos(), "exported float64 field %s carries a physical quantity but its doc comment names no unit (add e.g. \"in W\", \"in mm²\", or \"dimensionless\")", name.Name)
			}
		}
	}
}

// checkConst flags exported numeric constants with no unit in their doc.
// The declaration group's doc is consulted only for single-spec decls;
// inside a grouped const block each constant documents itself.
func checkConst(pass *analysis.Pass, gd *ast.GenDecl, spec *ast.ValueSpec) {
	text := spec.Doc.Text() + " " + spec.Comment.Text()
	if len(gd.Specs) == 1 {
		text += " " + gd.Doc.Text()
	}
	if namesUnit(text) {
		return
	}
	for _, name := range spec.Names {
		if !name.IsExported() {
			continue
		}
		obj, ok := pass.Info.Defs[name].(*types.Const)
		if !ok {
			continue
		}
		b, ok := obj.Type().Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsNumeric == 0 {
			continue
		}
		// Enumerators (constants of a named integer type, the `type Kind
		// int` + iota pattern) are labels, not physical quantities.
		if _, named := obj.Type().(*types.Named); named && b.Info()&types.IsInteger != 0 {
			continue
		}
		pass.Reportf(name.Pos(), "exported numeric constant %s has no unit in its doc comment (add e.g. \"in J/(kg·K)\", \"hours\", or \"dimensionless\")", name.Name)
	}
}

func isFloat64(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}
