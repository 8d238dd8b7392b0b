package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	appxcode "asiccloud/internal/apps/xcode"
	"asiccloud/internal/core"
	"asiccloud/internal/obs"
	"asiccloud/internal/tco"
)

// designSetupBatch is how many set-ups of the CLI path one sample
// times: a single one (resolving the app and building an engine) is
// about a microsecond, too close to the clock to read alone.
const designSetupBatch = 1000

// xcodeSweep is `asiccloud design -app xcode`: the Table 5 space with
// one to nine DRAM devices per ASIC.
func xcodeSweep() (core.Sweep, error) {
	base, err := appxcode.ServerConfig(1)
	if err != nil {
		return core.Sweep{}, err
	}
	return core.Sweep{Base: base, DRAMPerASIC: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}}, nil
}

// runDesign is the design-xcode workload: one caller runs the CLI's
// xcode design sweep in point-retaining mode, on a fresh engine per
// sweep, closed loop.
func runDesign(o options) (*report, error) {
	rep := newReport()
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	sw, err := xcodeSweep()
	if err != nil {
		return nil, err
	}
	// Reference: the streaming path (the daemon's), which shares no
	// finish code with the retaining path measured here.
	ref := core.NewEngine(nil)
	ref.DiscardPoints = true
	refRes, err := ref.Explore(sw, tco.Default())
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	refAnswer, err := answerBytes(refRes)
	if err != nil {
		return nil, err
	}
	orc := newOracle()
	orc.set("xcode", refAnswer)
	refErr := pin(rep, golden, "design-xcode/answer", refAnswer)

	setup := &setupSampler{batch: designSetupBatch, once: func() (time.Duration, time.Duration, error) {
		w := startWatch()
		for i := 0; i < designSetupBatch; i++ {
			s, err := xcodeSweep()
			if err != nil {
				return 0, 0, err
			}
			sink = core.NewEngine(nil)
			sink = s
		}
		cpu, wall := w.elapsed()
		return cpu, wall, nil
	}}
	if err := setup.sample(setupFirst); err != nil {
		return nil, err
	}

	type phaseOut struct {
		lat, cpu              samples
		configs               int64
		grid, sweep, finish   samples
		planHits, planLookups int64
		dupMisses             int64
	}
	tr := newTracer()
	runPhase := func(d time.Duration, traced bool) (phaseOut, error) {
		var p phaseOut
		deadline := time.Now().Add(d)
		for len(p.lat) == 0 || time.Now().Before(deadline) {
			if !traced {
				if err := setup.sample(setupEach); err != nil {
					return p, err
				}
			}
			quiesce()
			s, err := xcodeSweep()
			if err != nil {
				return p, err
			}
			var rec *obs.Recorder
			if traced {
				rec = obs.NewRecorder()
			}
			eng := core.NewEngine(rec)
			ctx := context.Background()
			var root *obs.Span
			if traced {
				ctx, root = rec.StartSpan(ctx, "bench")
			}
			c1, t1 := cpuTime(), time.Now()
			res, err := eng.ExploreContext(ctx, s, tco.Default())
			lat, cpu := time.Since(t1), cpuTime()-c1
			p.cpu.addDur(cpu)
			root.End()
			rep.attempted++
			p.lat.addDur(lat)
			p.configs += res.Pruned.Generated
			st := eng.CacheStats()
			p.planHits += st.Hits
			p.planLookups += st.Hits + st.Misses
			p.dupMisses += st.Misses - int64(st.Entries)
			switch {
			case err != nil:
				rep.fail(err)
			case refErr != nil:
				rep.fail(refErr)
			case int64(len(res.Points)) != res.Pruned.Feasible:
				rep.fail(fmt.Errorf("design-xcode: %d points retained, %d feasible", len(res.Points), res.Pruned.Feasible))
			default:
				got, err := answerBytes(res)
				if err == nil {
					err = orc.check("xcode", got)
				}
				if err != nil {
					rep.fail(err)
				}
			}
			if traced {
				req := len(p.lat)
				ph := importTrace(tr, req, rec, root)
				p.grid.addDur(ph["grid_build"])
				p.sweep.addDur(ph["sweep"])
				p.finish.addDur(ph["pareto"])
			}
		}
		return p, nil
	}

	untracedLen, tracedLen := phaseLengths(o)
	u, err := runPhase(untracedLen, false)
	if err != nil {
		return nil, err
	}
	setup.report(rep)
	rep.e2e["cpu_s_per_sweep"] = u.cpu.median()
	rep.describe("cpu_s_per_sweep", u.cpu)
	L := rep.layers
	L["wall.sweep_s_p50"] = u.lat.median()
	L["wall.sweeps_per_s"] = float64(len(u.lat)) / u.lat.sum()
	L["wall.configs_per_s"] = float64(u.configs) / u.lat.sum()
	rep.describe("wall.sweep_s_p50", u.lat)
	if !o.trace {
		return rep, nil
	}

	t, err := runPhase(tracedLen, true)
	if err != nil {
		return nil, err
	}
	rep.tracedE2E = t.lat.mean()
	L["obs.tracing_overhead_s"] = t.lat.mean() - u.lat.mean()
	L["core.grid_build_s"] = t.grid.mean()
	L["core.grid_builds"] = 1
	L["core.sweep_s"] = t.sweep.mean()
	L["core.finish_s"] = t.finish.mean()
	L["core.plan_cache_hit_ratio"] = ratio(float64(t.planHits), float64(t.planLookups))
	L["core.plan_dup_misses"] = float64(t.dupMisses) / float64(len(t.lat))
	L["workload.distinct_share"] = 1
	L["workload.engine_run_share"] = 1
	rep.budget = []budgetRow{
		{layer: "core.grid_build", seconds: L["core.grid_build_s"]},
		{layer: "core.sweep", seconds: L["core.sweep_s"]},
		{layer: "core.finish (keep-mode)", seconds: L["core.finish_s"]},
	}

	// Replay the sweep on a cold plan cache, as each fresh engine sees.
	rp := newReplayer(tr)
	rres, err := rp.sweep(0, sw, tco.Default(), core.DefaultChunkSize)
	rep.attempted++
	if err == nil {
		var got []byte
		if got, err = answerBytes(rres); err == nil {
			err = orc.check("xcode", got)
		}
	}
	if err != nil {
		rep.fail(fmt.Errorf("replay: %w", err))
	}
	// The retaining path folds nothing: its frontier work is the
	// keep-mode finish, so only the evaluation layers carry over.
	replayLayers(rep, tr, rp, "core.sweep", false)
	rep.unexplained()
	fillZeros(rep)
	return rep, tr.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)))
}
