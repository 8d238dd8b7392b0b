package vlsi

import (
	"errors"
	"fmt"
	"math"
)

// PowerGrid models the on-die supply network the paper calls out
// explicitly in its Figure 2: "we show the Power Grid explicitly,
// because for high power density or low-voltage ASICs, it will have to
// be engineered explicitly for low IR drop and high current."
//
// The model: a flip-chip die draws current through an area array of
// bumps into upper-metal power straps. Worst-case static droop is the
// droop across half a bump pitch of grid metal carrying the current of
// one bump cell, a standard first-order sizing relation:
//
//	droop ≈ J · pitch² · Rsheet / (8 · metalFraction)
//
// with J the current per area (A/mm²). Designs must keep droop below a
// fraction of the supply; low-voltage near-threshold operation squeezes
// the budget from both sides (higher J at a given power density, and a
// smaller absolute budget).
type PowerGrid struct {
	// BumpPitch is the flip-chip power bump spacing (mm); ~0.2 mm for
	// a dense array.
	BumpPitch float64
	// SheetOhms is the upper-metal sheet resistance (Ω/□).
	SheetOhms float64
	// DroopBudget is the allowed static droop as a fraction of VDD.
	DroopBudget float64
}

// DefaultPowerGrid is a dense flip-chip grid.
func DefaultPowerGrid() PowerGrid {
	return PowerGrid{
		BumpPitch:   0.40,
		SheetOhms:   0.040,
		DroopBudget: 0.05,
	}
}

// Validate reports whether the grid is physical.
func (g PowerGrid) Validate() error {
	switch {
	case g.BumpPitch <= 0:
		return fmt.Errorf("vlsi: bump pitch must be positive")
	case g.SheetOhms <= 0:
		return fmt.Errorf("vlsi: sheet resistance must be positive")
	case g.DroopBudget <= 0 || g.DroopBudget >= 0.5:
		return fmt.Errorf("vlsi: droop budget %v outside (0, 0.5)", g.DroopBudget)
	}
	return nil
}

// RequiredMetalFraction returns the top-metal share needed to hold the
// droop budget at the given operating point — the explicit engineering
// the paper says near-threshold high-density ASICs need. It returns an
// error when even 100% metal cannot meet the budget (the design must
// shrink its bump pitch instead). The grid must be valid (Validate): a
// sweep sizes one grid at every voltage of a column and validates it
// once per column, not on every call.
func (g PowerGrid) RequiredMetalFraction(powerDensity, volts float64) (float64, error) {
	if powerDensity < 0 || volts <= 0 {
		return 0, fmt.Errorf("vlsi: power density must be >= 0 and voltage positive")
	}
	j := powerDensity / volts
	need := j * g.BumpPitch * g.BumpPitch * g.SheetOhms / (8 * g.DroopBudget * volts)
	if need > 1 {
		// A bare sentinel: dense near-threshold sweeps hit this once per
		// swept configuration and discard the error (the evaluation just
		// records GridOK=false), so formatting the numbers here would
		// allocate on the hot path for nothing.
		return 0, ErrDroopBudget
	}
	return math.Max(need, 0.02), nil
}

// ErrDroopBudget flags operating points whose droop budget cannot be
// met even with a full metal layer; the design must shrink its bump
// pitch instead.
var ErrDroopBudget = errors.New("vlsi: droop budget unreachable even at 100% metal; shrink the bump pitch")
