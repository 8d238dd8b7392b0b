// Package fixture exercises the unitdoc analyzer: exported float64
// fields and exported numeric constants must name a unit in their doc,
// while documented quantities, enum constants, strings and unexported
// names pass.
package fixture

// Chip is a fixture physical description.
type Chip struct {
	// Power is the electrical draw at the nominal operating point.
	Power float64 // flagged: no unit named

	// AreaMM2 is the die area in mm².
	AreaMM2 float64 // fine: doc comment names mm²

	Freq float64 // clock frequency in Hz — fine: trailing comment names Hz

	// Efficiency is a dimensionless ratio.
	Efficiency float64 // fine: explicitly dimensionless

	Name string // fine: not a float64

	spare float64 // fine: unexported
}

// BadConst is the model's calibration knob. (flagged: no unit named)
const BadConst = 42.0

// GoodConst is the amortization horizon in hours.
const GoodConst = 8760.0

// Kind labels the supported memory families.
type Kind int

// Enumerators are labels, not quantities: exempt even without units.
const (
	// KindA is the first family.
	KindA Kind = iota
	// KindB is the other family.
	KindB
)

// Board is a second fixture description.
type Board struct {
	// Scale is the upper bound from the paper, a tuning knob.
	Scale float64 // flagged: the only match is inside a word

	// Rate is the work done per cycle.
	Rate float64 // fine: "per" names the unit of a rate
}
