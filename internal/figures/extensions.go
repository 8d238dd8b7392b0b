package figures

import (
	"fmt"

	"asiccloud/internal/studies"
)

// Extensions regenerates the beyond-the-paper study artifacts (see
// EXPERIMENTS.md "Extensions"): geographic siting, cooling technology,
// hardware lifetime and process node. They are written by cmd/paperfigs
// alongside the paper's tables under ext-* ids.
func Extensions() ([]Artifact, error) {
	var out []Artifact

	sites, err := studies.SiteStudy()
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, p := range sites {
		rows = append(rows, []string{
			p.Site.Name,
			f("%.3f", p.Site.ElectricityPerKWh),
			f("%.0f", p.Site.InletTempC),
			f("%.2f", p.Site.PUE),
			f("%.2f", p.OptimalVoltage),
			f("%.3f", p.TCOPerOp),
		})
	}
	//lint:ignore foldorder the study sweeps stream (DiscardPoints), and the one goroutine-written part of a core.Result, Points, is laid out by chunk index, not arrival order
	out = append(out, render("ext-sites", "Geographic siting study (paper §3's Iceland/Georgia argument)",
		[]string{"site", "kwh_usd", "inlet_C", "PUE", "opt_voltage_V", "TCO_per_GHs"}, rows))

	cooling, err := studies.CoolingStudy()
	if err != nil {
		return nil, err
	}
	rows = nil
	for _, p := range cooling {
		rows = append(rows, []string{
			p.Name, f("%.2f", p.Voltage), f("%.3f", p.WattsPerOp), f("%.3f", p.TCOPerOp),
		})
	}
	//lint:ignore foldorder the study sweeps stream (DiscardPoints), and the one goroutine-written part of a core.Result, Points, is laid out by chunk index, not arrival order
	out = append(out, render("ext-cooling", "Forced air versus two-phase immersion (paper §2)",
		[]string{"cooling", "opt_voltage_V", "W_per_GHs", "TCO_per_GHs"}, rows))

	lifetimes, err := studies.LifetimeStudy([]float64{1, 1.5, 2, 3})
	if err != nil {
		return nil, err
	}
	rows = nil
	for _, p := range lifetimes {
		rows = append(rows, []string{
			f("%.1f", p.Years), f("%.2f", p.OptimalVoltage),
			f("%.3f", p.WattsPerOp), f("%.3f", p.TCOPerOp),
		})
	}
	//lint:ignore foldorder the study sweeps stream (DiscardPoints), and the one goroutine-written part of a core.Result, Points, is laid out by chunk index, not arrival order
	out = append(out, render("ext-lifetime", "Server amortization period sensitivity",
		[]string{"years", "opt_voltage_V", "W_per_GHs", "TCO_per_GHs"}, rows))

	nodes, err := studies.NodeStudy()
	if err != nil {
		return nil, err
	}
	rows = nil
	for _, p := range nodes {
		rows = append(rows, []string{
			p.Node, f("%.3f", p.TCOPerOp),
			fmt.Sprintf("%.0f", p.MaskCost), fmt.Sprintf("%.0f", p.BreakevenTCO),
		})
	}
	out = append(out, render("ext-node", "28nm versus 40nm including NRE (paper §12)",
		[]string{"node", "TCO_per_GHs", "mask_NRE_usd", "two_for_two_breakeven_usd"}, rows))

	frontier, err := studies.CarbonFrontierStudy()
	if err != nil {
		return nil, err
	}
	rows = nil
	for _, p := range frontier {
		rows = append(rows, []string{
			f("%.2f", p.VoltageV), f("%.1f", p.DieAreaMM2), f("%.3f", p.TCOPerOp),
			f("%.3f", p.CO2KgPerOp), f("%.3f", p.EmbodiedKgPerOp), f("%.3f", p.OperationalKgPerOp),
		})
	}
	//lint:ignore foldorder the study sweeps stream (DiscardPoints), and the one goroutine-written part of a core.Result, Points, is laid out by chunk index, not arrival order
	out = append(out, render("ext-carbon", "TCO versus CO2e Pareto frontier (default carbon model)",
		[]string{"voltage_V", "die_mm2", "TCO_per_GHs", "kgCO2e_per_GHs", "embodied_kg", "operational_kg"}, rows))

	cross, err := studies.CarbonCrossoverStudy(
		[]float64{1, 1.5, 2, 3},
		[]float64{0.05, 0.10, 0.25, 0.50, 0.90, 1.00},
		[]float64{475, 20},
		studies.DefaultSubstrate())
	if err != nil {
		return nil, err
	}
	rows = nil
	for _, b := range cross.Breakevens {
		rows = append(rows, []string{
			f("%.0f", b.GridGCO2ePerKWh), f("%.1f", b.LifetimeYears), f("%.4f", b.Utilization),
		})
	}
	//lint:ignore foldorder the study sweeps stream (DiscardPoints), and the one goroutine-written part of a core.Result, Points, is laid out by chunk index, not arrival order
	out = append(out, render("ext-carbon-crossover",
		"ASIC-versus-reusable-substrate carbon break-even utilization by lifetime and grid intensity",
		[]string{"grid_gCO2e_kWh", "asic_years", "breakeven_utilization"}, rows))

	return out, nil
}
