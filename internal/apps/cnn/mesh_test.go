package cnn

import (
	"math"
	"testing"

	"asiccloud/internal/tco"
)

func TestChipShapeGeometry(t *testing.T) {
	cases := []struct {
		s            ChipShape
		nodes, chips int
		ht           int
	}{
		{ChipShape{1, 1}, 1, 64, 4},
		{ChipShape{2, 2}, 4, 16, 8},
		{ChipShape{4, 2}, 8, 8, 12},
		{ChipShape{4, 1}, 4, 16, 10},
		{ChipShape{8, 1}, 8, 8, 18},
		{ChipShape{3, 1}, 3, 24, 8}, // partial chips at the edge
		{ChipShape{5, 2}, 10, 8, 14},
	}
	for _, c := range cases {
		if got := c.s.Nodes(); got != c.nodes {
			t.Errorf("%v Nodes = %d, want %d", c.s, got, c.nodes)
		}
		if got := c.s.ChipsPerSystem(); got != c.chips {
			t.Errorf("%v ChipsPerSystem = %d, want %d", c.s, got, c.chips)
		}
		if got := c.s.HTLinksPerChip(); got != c.ht {
			t.Errorf("%v HTLinksPerChip = %d, want %d", c.s, got, c.ht)
		}
	}
	if err := (ChipShape{0, 1}).Validate(); err == nil {
		t.Error("zero dimension should fail")
	}
	if err := (ChipShape{9, 1}).Validate(); err == nil {
		t.Error("shape larger than the mesh should fail")
	}
}

func TestPaperShapesAreTwelve(t *testing.T) {
	shapes := PaperShapes()
	if len(shapes) != 12 {
		t.Fatalf("got %d shapes, want the paper's 12", len(shapes))
	}
	seen := map[string]bool{}
	for _, s := range shapes {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
		if seen[s.String()] {
			t.Errorf("duplicate shape %v", s)
		}
		seen[s.String()] = true
	}
	if !seen["(4, 2)"] || !seen["(4, 1)"] {
		t.Error("the paper's optimal shapes (4,2) and (4,1) must be present")
	}
}

func TestDieAreaMatchesPaper(t *testing.T) {
	// Paper Table 6: the 4x2 chip is 454 mm², the 4x1 chip is 245 mm².
	dieArea := func(s ChipShape) float64 {
		cfg, _, err := ServerConfig(s, s.ChipsPerSystem())
		if err != nil {
			t.Fatal(err)
		}
		return cfg.DieArea()
	}
	if got := dieArea(ChipShape{4, 2}); math.Abs(got-454) > 10 {
		t.Errorf("4x2 die = %.0f mm², want ~454", got)
	}
	if got := dieArea(ChipShape{4, 1}); math.Abs(got-245) > 10 {
		t.Errorf("4x1 die = %.0f mm², want ~245", got)
	}
}

func TestBiggerChipsFewerHTLinks(t *testing.T) {
	// "The more RCAs that are integrated into a chip, the fewer total
	// HyperTransport links are necessary": total HT PHYs over a full
	// system shrink as chips grow.
	total := func(s ChipShape) int { return s.HTLinksPerChip() * s.ChipsPerSystem() }
	if total(ChipShape{4, 2}) >= total(ChipShape{2, 1}) {
		t.Error("4x2 system should use fewer HT PHYs than 2x1")
	}
	if total(ChipShape{8, 1}) >= total(ChipShape{1, 1}) {
		t.Error("8x1 system should use fewer HT PHYs than 1x1")
	}
}

func TestServerConfigSystemCounting(t *testing.T) {
	// 4x2: 8 chips per system; 2 chips/lane × 8 lanes = 16 chips = 2
	// systems (the paper's energy/TCO-optimal point).
	cfg, systems, err := ServerConfig(ChipShape{4, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if systems != 2 {
		t.Errorf("systems = %d, want 2", systems)
	}
	if cfg.RCAsPerChip != 8 {
		t.Errorf("RCAs per chip = %d, want 8", cfg.RCAsPerChip)
	}
	// Cap at 3 systems even with surplus chips: 160 four-node chips
	// could tile 10 systems.
	_, systems, err = ServerConfig(ChipShape{2, 2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if systems != 3 {
		t.Errorf("systems = %d, want cap at 3", systems)
	}
	// Too few chips for one system.
	if _, _, err := ServerConfig(ChipShape{1, 1}, 1); err == nil {
		t.Error("8 single-node chips cannot form an 8x8 system")
	}
	if _, _, err := ServerConfig(ChipShape{4, 2}, 0); err == nil {
		t.Error("zero chips per lane should fail")
	}
	if _, _, err := ServerConfig(ChipShape{0, 2}, 2); err == nil {
		t.Error("invalid shape should fail")
	}
}

func TestNodeSpecFixedVoltage(t *testing.T) {
	spec := NodeSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.VoltageScalable {
		t.Error("DDN nodes must not voltage scale (paper §10)")
	}
	if spec.NominalVoltage != 0.9 {
		t.Errorf("nominal voltage = %v, want 0.9", spec.NominalVoltage)
	}
}

func TestExploreTable6(t *testing.T) {
	evals, err := Explore(tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 12 {
		t.Fatalf("evaluated %d shapes, want 12 (Figure 17)", len(evals))
	}
	energy, cost, tcoOpt := Optima(evals)

	// Paper Table 6: the energy- and TCO-optimal design is the 4x2 chip.
	if (energy.Shape != ChipShape{4, 2}) {
		t.Errorf("energy-optimal shape = %v, want (4, 2)", energy.Shape)
	}
	if (tcoOpt.Shape != ChipShape{4, 2}) {
		t.Errorf("TCO-optimal shape = %v, want (4, 2)", tcoOpt.Shape)
	}
	// W/TOps/s ~7.70 for the energy-optimal design.
	if math.Abs(energy.Eval.WattsPerOp-7.697)/7.697 > 0.15 {
		t.Errorf("energy-optimal W/TOps = %.2f, want ~7.70 ±15%%", energy.Eval.WattsPerOp)
	}
	// TCO/TOps ~42.6.
	if math.Abs(tcoOpt.TCOPerOp()-42.589)/42.589 > 0.15 {
		t.Errorf("TCO-optimal TCO/TOps = %.2f, want ~42.6 ±15%%", tcoOpt.TCOPerOp())
	}
	// Cost-optimal squeezes 3 systems in with smaller chips.
	if cost.Systems != 3 {
		t.Errorf("cost-optimal systems = %d, want 3 (paper: 'squeezed in')", cost.Systems)
	}
	if cost.Shape.Nodes() >= 8 {
		t.Errorf("cost-optimal chip %v should have fewer RCAs than 4x2", cost.Shape)
	}
	if math.Abs(cost.Eval.DollarsPerOp-10.276)/10.276 > 0.15 {
		t.Errorf("cost-optimal $/TOps = %.2f, want ~10.3 ±15%%", cost.Eval.DollarsPerOp)
	}
	// All twelve land in the paper's Figure 17 ranges (roughly
	// $10-13.5 per TOps/s and 7.5-11.5 W per TOps/s, ±25%).
	for _, e := range evals {
		if e.Eval.DollarsPerOp < 8 || e.Eval.DollarsPerOp > 19 {
			t.Errorf("%v: $/TOps %.2f outside Figure 17's range", e.Shape, e.Eval.DollarsPerOp)
		}
		if e.Eval.WattsPerOp < 6 || e.Eval.WattsPerOp > 14 {
			t.Errorf("%v: W/TOps %.2f outside Figure 17's range", e.Shape, e.Eval.WattsPerOp)
		}
	}
}

func TestExploreRejectsBadModel(t *testing.T) {
	bad := tco.Default()
	bad.LifetimeYears = -1
	if _, err := Explore(bad); err == nil {
		t.Error("invalid TCO model should fail")
	}
}
