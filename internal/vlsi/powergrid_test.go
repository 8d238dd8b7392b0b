package vlsi

import (
	"errors"
	"math"
	"testing"
)

func TestPowerGridValidate(t *testing.T) {
	if err := DefaultPowerGrid().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*PowerGrid){
		func(g *PowerGrid) { g.BumpPitch = 0 },
		func(g *PowerGrid) { g.SheetOhms = -1 },
		func(g *PowerGrid) { g.DroopBudget = 0 },
		func(g *PowerGrid) { g.DroopBudget = 0.6 },
	}
	for i, mutate := range bad {
		g := DefaultPowerGrid()
		mutate(&g)
		if g.Validate() == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestRequiredMetalFraction(t *testing.T) {
	g := DefaultPowerGrid()
	nom, err := g.RequiredMetalFraction(2.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := g.RequiredMetalFraction(2.0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if nt <= nom {
		t.Errorf("near-threshold should need more metal: %v vs %v", nt, nom)
	}
	// The ratio follows 1/V²: (1.0/0.4)² = 6.25 (above the 2% floor).
	if nom > 0.02+1e-9 {
		if math.Abs(nt/nom-6.25) > 0.01 {
			t.Errorf("metal ratio = %v, want 6.25", nt/nom)
		}
	}
	// An impossible point errors with advice.
	if _, err := g.RequiredMetalFraction(50, 0.4); err == nil {
		t.Error("unreachable droop budget should fail")
	}
	if _, err := g.RequiredMetalFraction(-1, 1); err == nil {
		t.Error("negative power density should fail")
	}
}

// TestDroopFailureAllocatesNothing pins the droop failure as a bare
// sentinel: server.Column.Eval sizes the grid once per swept
// configuration and records a failure as GridOK=false, so a dense RCA
// that misses the budget at every voltage must not format an error per
// configuration. No published sweep reaches this branch, so the sweep
// allocation guard in internal/core cannot see it.
func TestDroopFailureAllocatesNothing(t *testing.T) {
	g := DefaultPowerGrid()
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, err = g.RequiredMetalFraction(100, 0.4)
	})
	if !errors.Is(err, ErrDroopBudget) {
		t.Fatalf("RequiredMetalFraction(100, 0.4) error = %v, want ErrDroopBudget", err)
	}
	if allocs != 0 {
		t.Errorf("droop failure makes %.0f allocations per call, want 0", allocs)
	}
}
