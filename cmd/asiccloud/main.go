// Command asiccloud is the design-space exploration CLI: it designs
// Pareto- and TCO-optimal ASIC Cloud servers for the paper's four
// applications or for a custom RCA, compares clouds, sizes deployments,
// and answers the "when to go ASIC Cloud" question.
//
// Usage:
//
//	asiccloud design  -app bitcoin|litecoin|xcode|cnn
//	asiccloud pareto  -app bitcoin [-n 20]
//	asiccloud custom  -area 0.66 -perf 0.83 -density 2.0 -unit GH/s
//	asiccloud layouts
//	asiccloud deathmatch
//	asiccloud nre -tco 20e6 -nre 5e6 -speedup 2.5
//	asiccloud deploy -app litecoin -demand 1452000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"time"

	appbitcoin "asiccloud/internal/apps/bitcoin"
	appcnn "asiccloud/internal/apps/cnn"
	applitecoin "asiccloud/internal/apps/litecoin"
	appxcode "asiccloud/internal/apps/xcode"
	"asiccloud/internal/asic"
	"asiccloud/internal/core"
	"asiccloud/internal/datacenter"
	"asiccloud/internal/figures"
	"asiccloud/internal/nre"
	"asiccloud/internal/server"
	"asiccloud/internal/studies"
	"asiccloud/internal/tco"
	"asiccloud/internal/units"
	"asiccloud/internal/vlsi"
	"asiccloud/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("asiccloud: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C cancels in-flight explorations cleanly: the engine stops
	// within one geometry's work and reports how far it got.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch os.Args[1] {
	case "design":
		err = cmdDesign(ctx, os.Args[2:], os.Stdout)
	case "pareto":
		err = cmdPareto(ctx, os.Args[2:])
	case "custom":
		err = cmdCustom(ctx, os.Args[2:])
	case "layouts":
		err = cmdLayouts()
	case "deathmatch":
		err = cmdDeathmatch()
	case "nre":
		err = cmdNRE(os.Args[2:])
	case "deploy":
		err = cmdDeploy(ctx, os.Args[2:])
	case "study":
		err = cmdStudy(os.Args[2:])
	case "chipsim":
		err = cmdChipSim(os.Args[2:])
	case "provision":
		err = cmdProvision(os.Args[2:])
	case "mine":
		err = cmdMine(os.Args[2:])
	case "economics":
		err = cmdEconomics(ctx, os.Args[2:])
	case "compare":
		err = cmdCompare(ctx)
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `asiccloud — TCO-driven ASIC Cloud design-space explorer (ISCA'16)

subcommands:
  design      find the energy-, cost- and TCO-optimal servers for an app
  pareto      print the Pareto frontier for an app
  custom      explore a custom RCA given area/perf/power density
  layouts     compare Normal / Staggered / DUCT PCB layouts (Fig. 8)
  deathmatch  CPU vs GPU vs ASIC cloud TCO comparison (Table 7)
  nre         apply the two-for-two rule (Fig. 18)
  deploy      size a fleet for an aggregate performance demand
  study       sensitivity studies: energy, lifetime, layout, cooling,
              node, wafer, carbon
  chipsim     cycle-level on-ASIC NoC + control-plane simulation (Fig. 2)
  provision   latency-aware fleet sizing under diurnal bursty load
  mine        build a demo blockchain with the built-in SHA-256 miner (§2)
  economics   mining payback under a growing network (§2-3)
  compare     all four ASIC Clouds' TCO-optimal servers side by side`)
}

// exploreApp runs the standard sweep for a named application on the
// given engine, so commands that explore more than once (compare) reuse
// one thermal-plan cache.
func exploreApp(ctx context.Context, eng *core.Engine, app string) (core.Result, string, error) {
	model := tco.Default()
	switch app {
	case "bitcoin":
		res, err := eng.ExploreContext(ctx, core.Sweep{Base: server.Default(appbitcoin.RCA())}, model)
		return res, "GH/s", err
	case "litecoin":
		res, err := eng.ExploreContext(ctx, core.Sweep{Base: server.Default(applitecoin.RCA())}, model)
		return res, "MH/s", err
	case "xcode":
		base, err := appxcode.ServerConfig(1)
		if err != nil {
			return core.Result{}, "", err
		}
		res, err := eng.ExploreContext(ctx, core.Sweep{
			Base:        base,
			DRAMPerASIC: []int{1, 2, 3, 4, 5, 6, 7, 8, 9},
		}, model)
		return res, "Kfps", err
	default:
		return core.Result{}, "", fmt.Errorf("unknown app %q (want bitcoin, litecoin, xcode or cnn)", app)
	}
}

// cmdDesign runs the design subcommand, writing its report to w.
func cmdDesign(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("design", flag.ExitOnError)
	app := fs.String("app", "bitcoin", "application: bitcoin, litecoin, xcode, cnn")
	verbose := fs.Bool("v", false, "print the TCO-optimal server's full datasheet")
	o := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *app == "cnn" {
		evals, err := appcnn.Explore(tco.Default())
		if err != nil {
			return err
		}
		energy, cost, tcoOpt := appcnn.Optima(evals)
		fmt.Fprintf(w, "energy-optimal: chip %v, %d systems: %.2f W/TOps, $%.2f/TOps, TCO %.2f\n",
			energy.Shape, energy.Systems, energy.Eval.WattsPerOp, energy.Eval.DollarsPerOp, energy.TCOPerOp())
		fmt.Fprintf(w, "TCO-optimal:    chip %v, %d systems: %.2f W/TOps, $%.2f/TOps, TCO %.2f\n",
			tcoOpt.Shape, tcoOpt.Systems, tcoOpt.Eval.WattsPerOp, tcoOpt.Eval.DollarsPerOp, tcoOpt.TCOPerOp())
		fmt.Fprintf(w, "cost-optimal:   chip %v, %d systems: %.2f W/TOps, $%.2f/TOps, TCO %.2f\n",
			cost.Shape, cost.Systems, cost.Eval.WattsPerOp, cost.Eval.DollarsPerOp, cost.TCOPerOp())
		return nil
	}
	rec, err := o.begin()
	if err != nil {
		return err
	}
	res, _, err := exploreApp(ctx, core.NewEngine(rec), *app)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "explored %d feasible designs, %d Pareto-optimal\n\n", len(res.Points), len(res.Frontier))
	fmt.Fprintln(w, "energy-optimal:", res.EnergyOptimal.Describe())
	fmt.Fprintln(w, "TCO-optimal:   ", res.TCOOptimal.Describe())
	fmt.Fprintln(w, "cost-optimal:  ", res.CostOptimal.Describe())
	fmt.Fprintln(w, "carbon-optimal:", res.CarbonOptimal.Describe())
	if *verbose {
		fmt.Fprintln(w)
		fmt.Fprint(w, res.TCOOptimal.Report())
	}
	return o.finish(&res)
}

func cmdPareto(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("pareto", flag.ExitOnError)
	app := fs.String("app", "bitcoin", "application: bitcoin, litecoin, xcode")
	n := fs.Int("n", 20, "maximum frontier points to print")
	o := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := o.begin()
	if err != nil {
		return err
	}
	res, unit, err := exploreApp(ctx, core.NewEngine(rec), *app)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-10s %-8s %-6s %-8s %s\n",
		"W/"+unit, "$/"+unit, "voltage", "chips", "die mm²", "TCO/"+unit)
	step := 1
	if len(res.Frontier) > *n {
		step = len(res.Frontier) / *n
	}
	for i := 0; i < len(res.Frontier); i += step {
		p := res.Frontier[i]
		fmt.Printf("%-10.3f %-10.3f %-8.2f %-6d %-8.0f %.3f\n",
			p.WattsPerOp, p.DollarsPerOp, p.Config.Voltage,
			p.Config.ChipsPerLane, p.DieArea, p.TCOPerOp())
	}
	return o.finish(&res)
}

func cmdCustom(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("custom", flag.ExitOnError)
	area := fs.Float64("area", 1.0, "RCA area in mm²")
	perf := fs.Float64("perf", 1.0, "RCA throughput at nominal voltage (unit/s)")
	density := fs.Float64("density", 0.5, "nominal power density in W/mm²")
	freq := fs.Float64("freq", 800e6, "nominal frequency in Hz")
	unit := fs.String("unit", "ops/s", "performance unit label")
	leak := fs.Float64("leak", 0.03, "leakage fraction of nominal power")
	sram := fs.Float64("sram", 0, "SRAM power fraction (separate 0.9 V rail)")
	o := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := vlsi.Spec{
		Name:                "custom",
		PerfUnit:            *unit,
		Area:                *area,
		NominalVoltage:      1.0,
		NominalFreq:         *freq,
		NominalPerf:         *perf,
		NominalPowerDensity: *density,
		LeakageFraction:     *leak,
		SRAMPowerFraction:   *sram,
		VoltageScalable:     true,
	}
	if *sram > 0 {
		spec.SRAMVmin = 0.9
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	rec, err := o.begin()
	if err != nil {
		return err
	}
	res, err := core.NewEngine(rec).ExploreContext(ctx, core.Sweep{Base: server.Default(spec)}, tco.Default())
	if err != nil {
		return err
	}
	fmt.Println("energy-optimal:", res.EnergyOptimal.Describe())
	fmt.Println("TCO-optimal:   ", res.TCOOptimal.Describe())
	fmt.Println("cost-optimal:  ", res.CostOptimal.Describe())
	return o.finish(&res)
}

func cmdLayouts() error {
	a, err := figures.Figure8()
	if err != nil {
		return err
	}
	fmt.Print(a.Text)
	return nil
}

func cmdDeathmatch() error {
	a, err := figures.Table7()
	if err != nil {
		return err
	}
	fmt.Print(a.Text)
	return nil
}

func cmdNRE(args []string) error {
	fs := flag.NewFlagSet("nre", flag.ExitOnError)
	tcoUSD := fs.Float64("tco", 20e6, "existing cloud's TCO for the computation over the horizon ($)")
	nreUSD := fs.Float64("nre", nre.Default28nm().Total(), "ASIC NRE: masks + development ($)")
	speedup := fs.Float64("speedup", 2.0, "projected TCO-per-op/s improvement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := nre.Evaluate(*tcoUSD, *nreUSD, *speedup)
	if err != nil {
		return err
	}
	fmt.Printf("TCO/NRE ratio:        %.2f\n", d.TCONRERatio)
	if d.RequiredSpeedup > 0 {
		fmt.Printf("breakeven speedup:    %.2fx\n", d.RequiredSpeedup)
	} else {
		fmt.Println("breakeven speedup:    unreachable (TCO below NRE)")
	}
	fmt.Printf("projected speedup:    %.2fx\n", d.ProjectedSpeedup)
	fmt.Printf("two-for-two rule:     %v\n", verdict(d.PassesTwoForTwo))
	fmt.Printf("exact breakeven:      %v\n", verdict(d.PassesBreakeven))
	fmt.Printf("projected savings:    %s\n", units.Money(d.ProjectedSavings))
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "PASS — build the ASIC Cloud"
	}
	return "FAIL"
}

func cmdDeploy(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	app := fs.String("app", "litecoin", "application: bitcoin, litecoin, xcode")
	demand := fs.Float64("demand", 1452000, "aggregate performance demand (app units)")
	rackKW := fs.Float64("rackkw", 12, "per-rack power budget in kW")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, unit, err := exploreApp(ctx, core.NewEngine(nil), *app)
	if err != nil {
		return err
	}
	opt := res.TCOOptimal
	rack := datacenter.DefaultRack()
	rack.PowerBudget = *rackKW * 1000
	d, err := datacenter.Plan(rack, opt.Perf, opt.WallPower, *demand)
	if err != nil {
		return err
	}
	fmt.Printf("TCO-optimal server: %.0f %s at %.0f W\n", opt.Perf, unit, opt.WallPower)
	fmt.Printf("demand %.3g %s -> %d servers in %d racks, %.2f MW\n",
		*demand, unit, d.Servers, d.Racks, datacenter.MegawattFacilities(d))
	return nil
}

func cmdStudy(args []string) error {
	fs := flag.NewFlagSet("study", flag.ExitOnError)
	which := fs.String("which", "energy", "study: energy, lifetime, layout, cooling, node, wafer, carbon")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *which {
	case "energy":
		pts, err := studies.EnergyPriceStudy([]float64{0.02, 0.04, 0.06, 0.10, 0.15})
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-10s %-10s %s\n", "$/kWh", "voltage", "W/GH/s", "TCO/GH/s")
		for _, p := range pts {
			fmt.Printf("%-12.2f %-10.2f %-10.3f %.3f\n", p.PricePerKWh, p.OptimalVoltage, p.WattsPerOp, p.TCOPerOp)
		}
	case "lifetime":
		pts, err := studies.LifetimeStudy([]float64{1, 1.5, 2, 3})
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-10s %-10s %s\n", "years", "voltage", "W/GH/s", "TCO/GH/s")
		for _, p := range pts {
			fmt.Printf("%-8.1f %-10.2f %-10.3f %.3f\n", p.Years, p.OptimalVoltage, p.WattsPerOp, p.TCOPerOp)
		}
	case "layout":
		pts, err := studies.LayoutStudy()
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-12s %s\n", "layout", "GH/s/server", "TCO/GH/s")
		for _, p := range pts {
			fmt.Printf("%-12s %-12.0f %.3f\n", p.Layout, p.Perf, p.TCOPerOp)
		}
	case "cooling":
		pts, err := studies.CoolingStudy()
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %-10s %-10s %s\n", "cooling", "voltage", "W/GH/s", "TCO/GH/s")
		for _, p := range pts {
			fmt.Printf("%-22s %-10.2f %-10.3f %.3f\n", p.Name, p.Voltage, p.WattsPerOp, p.TCOPerOp)
		}
	case "node":
		pts, err := studies.NodeStudy()
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-12s %-12s %s\n", "node", "TCO/GH/s", "mask NRE", "breakeven TCO")
		for _, p := range pts {
			fmt.Printf("%-12s %-12.3f %-12s %s\n", p.Node, p.TCOPerOp,
				units.Money(p.MaskCost), units.Money(p.BreakevenTCO))
		}
	case "wafer":
		pts, err := studies.WaferPriceStudy([]float64{2000, 3000, 3700, 5000, 8000})
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-10s %-10s %s\n", "$/wafer", "voltage", "$/GH/s", "TCO/GH/s")
		for _, p := range pts {
			fmt.Printf("%-10.0f %-10.2f %-10.3f %.3f\n", p.WaferCost, p.OptimalVoltage, p.DollarsPerOp, p.TCOPerOp)
		}
	case "carbon":
		s, err := studies.CarbonCrossoverStudy(
			[]float64{1, 1.5, 2, 3},
			[]float64{0.05, 0.10, 0.25, 0.50, 0.90, 1.00},
			[]float64{475, 20},
			studies.DefaultSubstrate())
		if err != nil {
			return err
		}
		fmt.Printf("carbon-optimal ASIC design: %.2f V, embodied %.3f kg CO2e/GH/s, %.3f W/GH/s\n\n",
			s.OptimalVoltage, s.EmbodiedKgPerOp, s.WattsPerOp)
		fmt.Printf("break-even ASIC utilization vs %.0fx-area/%.0fx-power substrate (%.0f yr at %.0f%%):\n",
			studies.DefaultSubstrate().AreaOverhead, studies.DefaultSubstrate().PowerOverhead,
			studies.DefaultSubstrate().LifetimeYears, 100*studies.DefaultSubstrate().Utilization)
		fmt.Printf("%-16s %-12s %s\n", "grid gCO2e/kWh", "asic years", "breakeven util")
		for _, b := range s.Breakevens {
			mark := fmt.Sprintf("%.4f", b.Utilization)
			if b.Utilization > 1 {
				mark += " (never)"
			}
			fmt.Printf("%-16.0f %-12.1f %s\n", b.GridGCO2ePerKWh, b.LifetimeYears, mark)
		}
		fmt.Printf("\n%-16s %-8s %-8s %-14s %-14s %s\n",
			"grid gCO2e/kWh", "years", "util", "asic kg/GHs·yr", "sub kg/GHs·yr", "winner")
		for _, r := range s.Rows {
			winner := "substrate"
			if r.ASICWins {
				winner = "ASIC"
			}
			fmt.Printf("%-16.0f %-8.1f %-8.2f %-14.3f %-14.3f %s\n",
				r.GridGCO2ePerKWh, r.LifetimeYears, r.Utilization,
				r.ASICKgPerOpYear, r.SubstrateKgPerOpYear, winner)
		}
	default:
		return fmt.Errorf("unknown study %q", *which)
	}
	return nil
}

func cmdChipSim(args []string) error {
	fs := flag.NewFlagSet("chipsim", flag.ExitOnError)
	width := fs.Int("width", 4, "mesh width (RCAs)")
	height := fs.Int("height", 4, "mesh height (RCAs)")
	jobs := fs.Int("jobs", 1000, "jobs to push through the chip")
	jobCycles := fs.Int("jobcycles", 64, "RCA service time per job")
	heat := fs.Float64("heat", 0.02, "sensor °C per busy RCA-cycle")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := asic.DefaultConfig()
	cfg.Width, cfg.Height = *width, *height
	cfg.JobCycles = *jobCycles
	cfg.HeatPerBusyCycle = *heat
	chip, err := asic.New(cfg)
	if err != nil {
		return err
	}
	for i := 0; i < *jobs; i++ {
		chip.Submit(uint64(i+1), uint64(i))
	}
	if !chip.RunUntilDrained(100_000_000) {
		return fmt.Errorf("chip did not drain: %+v", chip.Stats())
	}
	s := chip.Stats()
	fmt.Printf("%dx%d mesh, %d-cycle RCAs: %d jobs in %d cycles\n",
		*width, *height, *jobCycles, s.Completed, s.Cycle)
	fmt.Printf("throughput:   %.3f jobs/cycle\n", float64(s.Completed)/float64(s.Cycle))
	fmt.Printf("avg latency:  %.1f cycles\n", s.AvgLatency())
	fmt.Printf("utilization:  %.1f%%\n", 100*s.Utilization(*width**height))
	fmt.Printf("max sensor:   %.1f °C (throttled %d cycles)\n", s.MaxTempC, s.ThrottledCycles)
	return nil
}

func cmdProvision(args []string) error {
	fs := flag.NewFlagSet("provision", flag.ExitOnError)
	rate := fs.Float64("rate", 100, "mean arrivals per second")
	swing := fs.Float64("swing", 0.6, "diurnal swing in [0,1)")
	service := fs.Float64("service", 4, "mean service seconds per job at 1x speed")
	speedup := fs.Float64("speedup", 1, "per-server speedup over the reference (ASIC servers are large)")
	p99 := fs.Float64("p99", 1, "target 99th-percentile queueing wait in seconds")
	hours := fs.Float64("hours", 2, "trace horizon in hours")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g := workload.DefaultGenerator()
	g.MeanRate = *rate
	g.DiurnalSwing = *swing
	g.MeanServiceSec = *service
	jobs, err := g.Trace(*hours * units.SecondsPerHour)
	if err != nil {
		return err
	}
	r, err := workload.ProvisionForLatency(jobs, *speedup, *p99, 1_000_000)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d arrivals over %.1f h (peak %.0f/s)\n", len(jobs), *hours, g.RateAt(g.PeriodSeconds/4))
	fmt.Printf("fleet: %d servers at %gx speedup\n", r.Servers, *speedup)
	fmt.Printf("  utilization %.1f%%, mean wait %.3fs, P99 wait %.3fs, max queue %d\n",
		100*r.Utilization, r.MeanWaitSec, r.P99WaitSec, r.MaxQueue)
	return nil
}

func cmdMine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	blocks := fs.Int("blocks", 8, "blocks to mine on top of genesis")
	bits := fs.Uint("bits", 0x2000ffff, "compact difficulty target")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mineOne := func(prev [32]byte, tag byte, ts uint32) (appbitcoin.Block, error) {
		var digest [32]byte
		digest[0] = tag
		b := appbitcoin.NewBlock(prev, digest, ts, uint32(*bits))
		nonce, found, err := appbitcoin.Mine(&b.Header, 0, 1<<24)
		if err != nil {
			return appbitcoin.Block{}, err
		}
		if !found {
			return appbitcoin.Block{}, fmt.Errorf("no valid nonce within budget")
		}
		b.Header.Nonce = nonce
		return b, nil
	}
	start := time.Now()
	genesis, err := mineOne([32]byte{}, 0, 1461888000)
	if err != nil {
		return err
	}
	chain, err := appbitcoin.NewChain(genesis)
	if err != nil {
		return err
	}
	gh := genesis.Hash()
	fmt.Printf("height 0: genesis %x (nonce %d)\n", gh[:6], genesis.Header.Nonce)
	prev := gh
	for i := 1; i <= *blocks; i++ {
		b, err := mineOne(prev, byte(i), uint32(1461888000+i*600))
		if err != nil {
			return err
		}
		if _, err := chain.Add(b); err != nil {
			return err
		}
		h := b.Hash()
		fmt.Printf("height %d: block %x (nonce %d)\n", i, h[:6], b.Header.Nonce)
		prev = h
	}
	fmt.Printf("chain height %d, total work %s hashes, %v elapsed\n",
		chain.Height(), chain.TotalWork().String(), time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdEconomics(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("economics", flag.ExitOnError)
	world := fs.Float64("world", 575e6, "world hashrate at deployment (GH/s)")
	growth := fs.Float64("growth", 0.3, "network growth per month (fraction)")
	days := fs.Float64("days", 540, "operating horizon in days (1.5-year ASIC life)")
	price := fs.Float64("kwh", 0.06, "electricity $/kWh")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, _, err := exploreApp(ctx, core.NewEngine(nil), "bitcoin")
	if err != nil {
		return err
	}
	opt := res.TCOOptimal
	market := appbitcoin.PaperMarket()
	miner := appbitcoin.Miner{
		HashrateGHs:       opt.Perf,
		PowerW:            opt.WallPower,
		CapitalUSD:        opt.Cost(),
		ElectricityPerKWh: *price,
	}
	p, err := market.Simulate(miner, *world, *growth, *days)
	if err != nil {
		return err
	}
	fmt.Printf("TCO-optimal server: %.0f GH/s, %.0f W, %s capital\n",
		miner.HashrateGHs, miner.PowerW, units.Money(miner.CapitalUSD))
	fmt.Printf("world %.3g GH/s growing %.0f%%/month, %g-day horizon:\n",
		*world, 100**growth, *days)
	fmt.Printf("  revenue %s, energy %s, net %s\n",
		units.Money(p.RevenueUSD), units.Money(p.EnergyCostUSD), units.Money(p.NetUSD))
	if p.PaybackDays < *days {
		fmt.Printf("  payback in %.0f days\n", p.PaybackDays)
	} else {
		fmt.Println("  never pays back within the horizon")
	}
	frac, err := market.FirstMoverAdvantage(miner, *world, *growth, *days, 180)
	if err != nil {
		return err
	}
	fmt.Printf("  deploying 6 months late keeps only %.0f%% of the revenue\n", 100*frac)
	return nil
}

func cmdCompare(ctx context.Context) error {
	fmt.Printf("%-16s %-8s %-14s %-9s %-9s %-10s %-10s %s\n",
		"application", "unit", "perf/server", "W", "$", "$/op", "W/op", "TCO/op")
	row := func(name, unit string, perf, w, cost, dpo, wpo, tco float64) {
		fmt.Printf("%-16s %-8s %-14.0f %-9.0f %-9.0f %-10.4g %-10.4g %.4g\n",
			name, unit, perf, w, cost, dpo, wpo, tco)
	}
	// One engine for all three clouds: their sweeps overlap heavily in
	// geometry, so later apps hit the thermal-plan cache.
	eng := core.NewEngine(nil)
	for _, app := range []string{"bitcoin", "litecoin", "xcode"} {
		res, unit, err := exploreApp(ctx, eng, app)
		if err != nil {
			return err
		}
		o := res.TCOOptimal
		row(app, unit, o.Perf, o.WallPower, o.Cost(), o.DollarsPerOp, o.WattsPerOp, o.TCOPerOp())
	}
	evals, err := appcnn.Explore(tco.Default())
	if err != nil {
		return err
	}
	_, _, o := appcnn.Optima(evals)
	row("cnn (DaDianNao)", "TOps/s", o.Eval.Perf, o.Eval.WallPower, o.Eval.Cost(),
		o.Eval.DollarsPerOp, o.Eval.WattsPerOp, o.TCOPerOp())
	return nil
}
