package figures

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell.
func cell(t *testing.T, a Artifact, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(a.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s[%d][%d] = %q: %v", a.ID, row, col, a.Rows[row][col], err)
	}
	return v
}

// findCol locates a header column by name.
func findCol(t *testing.T, a Artifact, name string) int {
	t.Helper()
	for i, h := range a.Rows[0] {
		if h == name {
			return i
		}
	}
	t.Fatalf("%s: no column %q in %v", a.ID, name, a.Rows[0])
	return -1
}

func TestArtifactRendering(t *testing.T) {
	a := render("test", "A Title", []string{"x", "y"}, [][]string{{"1", "2"}, {"3", "4"}})
	if !strings.Contains(a.Text, "TEST — A Title") {
		t.Error("title missing from text rendering")
	}
	if !strings.HasPrefix(a.CSV, "x,y\n1,2\n") {
		t.Errorf("CSV rendering wrong: %q", a.CSV)
	}
	if len(a.Rows) != 3 {
		t.Errorf("rows = %d, want header + 2", len(a.Rows))
	}
}

func TestFigure1DifficultyRamp(t *testing.T) {
	a, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	last := len(a.Rows) - 1
	dc := findCol(t, a, "difficulty")
	if d := cell(t, a, last, dc); d < 1e10 || d > 2e11 {
		t.Errorf("final difficulty %g, want ~5e10 (paper: 50 billion)", d)
	}
	// Monotone difficulty.
	prev := 0.0
	for r := 1; r <= last; r++ {
		d := cell(t, a, r, dc)
		if d < prev*0.99 {
			t.Fatalf("difficulty regressed at row %d", r)
		}
		prev = d
	}
}

func TestFigure5Monotone(t *testing.T) {
	a := Figure5()
	dc := findCol(t, a, "normalized_delay")
	prev := 1e18
	for r := 1; r < len(a.Rows); r++ {
		d := cell(t, a, r, dc)
		if d >= prev {
			t.Fatalf("delay not decreasing at row %d", r)
		}
		prev = d
	}
	// Endpoint anchors.
	if got := cell(t, a, 1, dc); got < 11 || got > 13 {
		t.Errorf("delay at 0.40 V = %v, want ~11.9", got)
	}
}

func TestFigure6TIMDominance(t *testing.T) {
	a, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	rc := findCol(t, a, "resistance_KperW")
	wc := findCol(t, a, "watts_per_mm2")
	// Resistance falls with area; acceptable power density falls too.
	if cell(t, a, 1, rc) < 10*cell(t, a, len(a.Rows)-1, rc) {
		t.Error("small-die resistance should dwarf large-die resistance")
	}
	if cell(t, a, 1, wc) <= cell(t, a, len(a.Rows)-1, wc) {
		t.Error("acceptable power density should decrease with die area")
	}
}

func TestFigure8Ratios(t *testing.T) {
	a, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	vc := findCol(t, a, "vs_normal")
	staggered := cell(t, a, 2, vc)
	duct := cell(t, a, 3, vc)
	if staggered < 1.4 || staggered > 1.8 {
		t.Errorf("staggered/normal = %v, want ~1.65", staggered)
	}
	if duct/staggered < 1.05 || duct/staggered > 1.25 {
		t.Errorf("duct/staggered = %v, want ~1.15", duct/staggered)
	}
}

func TestFigure9SeriesOrdering(t *testing.T) {
	a, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	// Group max power by silicon series; larger series must dominate.
	sc := findCol(t, a, "silicon_mm2")
	wc := findCol(t, a, "watts_per_lane")
	max := map[float64]float64{}
	for r := 1; r < len(a.Rows); r++ {
		s := cell(t, a, r, sc)
		if w := cell(t, a, r, wc); w > max[s] {
			max[s] = w
		}
	}
	if !(max[50] < max[330] && max[330] < max[2200]) {
		t.Errorf("power per lane should grow with total silicon: %v", max)
	}
}

// TestFigure11RowOrder pins Figure 11's row order: voltage ascending,
// then silicon per lane in ascending numeric order within each voltage.
func TestFigure11RowOrder(t *testing.T) {
	a, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.Rows) - 1; got != 55 {
		t.Fatalf("fig11 has %d rows, want 55", got)
	}
	vc := findCol(t, a, "voltage_V")
	sc := findCol(t, a, "silicon_per_lane_mm2")
	for r := 2; r < len(a.Rows); r++ {
		if cell(t, a, r, vc) < cell(t, a, r-1, vc) {
			t.Fatalf("row %d: voltage %s after %s", r, a.Rows[r][vc], a.Rows[r-1][vc])
		}
		if a.Rows[r][vc] == a.Rows[r-1][vc] && cell(t, a, r, sc) <= cell(t, a, r-1, sc) {
			t.Errorf("row %d: silicon %s after %s at %s V", r, a.Rows[r][sc], a.Rows[r-1][sc], a.Rows[r][vc])
		}
	}
}

func TestTable3Structure(t *testing.T) {
	_, table, err := Figure12Table3()
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string][]string{}
	for _, r := range table.Rows[1:] {
		byMetric[r[0]] = r[1:]
	}
	v := byMetric["Logic voltage (V)"]
	if v == nil {
		t.Fatal("voltage row missing")
	}
	// Columns are W-optimal, TCO-optimal, $-optimal: voltages ascend.
	if !(v[0] < v[1] && v[1] < v[2]) {
		t.Errorf("voltages should ascend across columns: %v", v)
	}
	tcoRow := byMetric["TCO per GH/s"]
	e, _ := strconv.ParseFloat(tcoRow[0], 64)
	o, _ := strconv.ParseFloat(tcoRow[1], 64)
	c, _ := strconv.ParseFloat(tcoRow[2], 64)
	if o >= e || o >= c {
		t.Errorf("TCO-optimal column should have the lowest TCO: %v", tcoRow)
	}
}

func TestVoltageStackingSaves(t *testing.T) {
	a, err := VoltageStacking()
	if err != nil {
		t.Fatal(err)
	}
	tc := findCol(t, a, "TCO_per_GHs")
	if cell(t, a, 2, tc) >= cell(t, a, 1, tc) {
		t.Error("stacked TCO should beat converter TCO (paper: $2.75 vs $3.22)")
	}
}

func TestTable4LitecoinVoltagesAboveBitcoin(t *testing.T) {
	_, t4, err := Figure14Table4()
	if err != nil {
		t.Fatal(err)
	}
	_, t3, err := Figure12Table3()
	if err != nil {
		t.Fatal(err)
	}
	voltage := func(a Artifact, col int) float64 {
		for _, r := range a.Rows[1:] {
			if r[0] == "Logic voltage (V)" {
				v, _ := strconv.ParseFloat(r[col], 64)
				return v
			}
		}
		t.Fatal("no voltage row")
		return 0
	}
	// The SRAM-dominated Litecoin design runs at much higher TCO-optimal
	// voltage than Bitcoin (paper: 0.70 V vs 0.49 V).
	if voltage(t4, 2) <= voltage(t3, 2)+0.1 {
		t.Errorf("Litecoin TCO-opt voltage %v should be well above Bitcoin's %v",
			voltage(t4, 2), voltage(t3, 2))
	}
}

func TestTable5XcodeShape(t *testing.T) {
	fig, table, err := Figure15Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) < 10 {
		t.Errorf("xcode frontier has only %d points", len(fig.Rows)-1)
	}
	// TCO-optimal Kfps TCO within 25% of the paper's 86.97.
	for _, r := range table.Rows[1:] {
		if r[0] == "TCO per Kfps" {
			v, _ := strconv.ParseFloat(r[2], 64)
			if v < 65 || v > 109 {
				t.Errorf("TCO per Kfps = %v, want ~87 ±25%%", v)
			}
		}
	}
}

func TestFigure17TwelveShapes(t *testing.T) {
	fig, table, err := Figure17Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows)-1 != 12 {
		t.Errorf("Figure 17 has %d configurations, want 12", len(fig.Rows)-1)
	}
	if len(table.Rows)-1 != 3 {
		t.Errorf("Table 6 has %d columns, want 3", len(table.Rows)-1)
	}
	// The best row (sorted by TCO) is the 4x2 chip.
	if fig.Rows[1][0] != "(4, 2)" {
		t.Errorf("best CNN chip = %s, want (4, 2)", fig.Rows[1][0])
	}
}

func TestTable7Advantages(t *testing.T) {
	a, err := Table7()
	if err != nil {
		t.Fatal(err)
	}
	ac := findCol(t, a, "ASIC_advantage_x")
	cc := findCol(t, a, "cloud")
	appc := findCol(t, a, "application")
	for r := 1; r < len(a.Rows); r++ {
		adv := cell(t, a, r, ac)
		cloud := a.Rows[r][cc]
		app := a.Rows[r][appc]
		// "2-3 orders of magnitude better TCO versus CPU and GPU".
		if cloud == "CPU" && (adv < 500 || adv > 50000) {
			t.Errorf("%s vs CPU advantage = %v, want 3-4 orders of magnitude", app, adv)
		}
		if cloud == "GPU" && (adv < 50 || adv > 5000) {
			t.Errorf("%s vs GPU advantage = %v, want 2-3 orders of magnitude", app, adv)
		}
	}
}

func TestFigure18Values(t *testing.T) {
	a, err := Figure18()
	if err != nil {
		t.Fatal(err)
	}
	rc := findCol(t, a, "TCO_over_NRE")
	ic := findCol(t, a, "required_TCO_improvement")
	for r := 1; r < len(a.Rows); r++ {
		ratio := cell(t, a, r, rc)
		imp := cell(t, a, r, ic)
		want := ratio / (ratio - 1)
		if imp < want*0.99 || imp > want*1.01 {
			t.Errorf("breakeven(%v) = %v, want %v", ratio, imp, want)
		}
	}
}

func TestAllArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact regeneration skipped in -short mode")
	}
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"fig1", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11",
		"fig12", "table3", "fig13", "stacking", "fig14", "table4",
		"fig15", "table5", "fig16", "fig17", "table6", "table7", "fig18", "scorecard"}
	if len(all) != len(wantIDs) {
		t.Fatalf("got %d artifacts, want %d", len(all), len(wantIDs))
	}
	for i, a := range all {
		if a.ID != wantIDs[i] {
			t.Errorf("artifact %d = %s, want %s", i, a.ID, wantIDs[i])
		}
		if len(a.Rows) < 2 {
			t.Errorf("%s has no data rows", a.ID)
		}
		if a.Text == "" || a.CSV == "" {
			t.Errorf("%s has empty renderings", a.ID)
		}
	}
}

func TestScorecard(t *testing.T) {
	a, err := Scorecard()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) < 20 {
		t.Fatalf("scorecard has only %d rows", len(a.Rows)-1)
	}
	vc := findCol(t, a, "verdict")
	counts := map[string]int{}
	for r := 1; r < len(a.Rows); r++ {
		v := a.Rows[r][vc]
		if v != "MATCH" && v != "CLOSE" && v != "SHAPE" {
			t.Fatalf("unknown verdict %q", v)
		}
		counts[v]++
	}
	// The reproduction quality bar: at least half the headline numbers
	// MATCH (within 10%%), and MATCH+CLOSE dominate.
	total := len(a.Rows) - 1
	if counts["MATCH"]*2 < total {
		t.Errorf("only %d/%d MATCH verdicts", counts["MATCH"], total)
	}
	if counts["SHAPE"]*3 > total {
		t.Errorf("too many SHAPE-only reproductions: %v", counts)
	}
}

func TestExtensions(t *testing.T) {
	ext, err := Extensions()
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := map[string]bool{
		"ext-sites": true, "ext-cooling": true, "ext-lifetime": true, "ext-node": true,
		"ext-carbon": true, "ext-carbon-crossover": true,
	}
	for _, a := range ext {
		if !wantIDs[a.ID] {
			t.Errorf("unexpected extension artifact %s", a.ID)
		}
		delete(wantIDs, a.ID)
		if len(a.Rows) < 3 {
			t.Errorf("%s has only %d rows", a.ID, len(a.Rows)-1)
		}
	}
	for id := range wantIDs {
		t.Errorf("missing extension artifact %s", id)
	}
}
