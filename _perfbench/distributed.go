package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"path/filepath"
	"sync"
	"time"

	"asiccloud/internal/cloud"
	"asiccloud/internal/core"
	"asiccloud/internal/obs"
	"asiccloud/internal/service"
	"asiccloud/internal/tco"
)

// fleetWorkers is the worker count of the distributed-xcode fleet: one
// per core of the two-core reference machine.
const fleetWorkers = 2

// leaseDuration is asiccloudd -coordinate's default chunk lease.
const leaseDuration = 10 * time.Second

// handlerStats times the cloud.Handler each worker runs, from outside
// the pool: busy time, calls and (when capture is set) the outputs.
type handlerStats struct {
	mu      sync.Mutex
	busy    time.Duration
	calls   int
	capture bool
	outputs [][]byte
	tr      *tracer
	req     int
}

func (s *handlerStats) wrap(h cloud.Handler) cloud.Handler {
	return func(j cloud.Job) ([]byte, error) {
		id := s.tr.begin(s.req, -1, "cloud.handler")
		t0 := time.Now()
		out, err := h(j)
		d := time.Since(t0)
		s.tr.end(id)
		s.mu.Lock()
		s.busy += d
		s.calls++
		if s.capture {
			s.outputs = append(s.outputs, out)
		}
		s.mu.Unlock()
		return out, err
	}
}

// fleet is a coordinator listener with two workers dialed into it,
// each on its own cold engine and recorder, as separate
// `asiccloudd -worker` processes would be.
type fleet struct {
	ln     *countingListener
	cancel context.CancelFunc
	wg     sync.WaitGroup
	errs   [fleetWorkers]error
	recs   [fleetWorkers]*obs.Recorder
}

// startFleet binds the pool listener, starts the workers and returns
// once both have dialed.
func startFleet(stats *handlerStats) (*fleet, error) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{ln: newCountingListener(inner, fleetWorkers), cancel: cancel}
	logger := obs.NewLogger(io.Discard, slog.LevelInfo)
	for w := 0; w < fleetWorkers; w++ {
		f.recs[w] = obs.NewRecorder()
		eng := core.NewEngine(f.recs[w])
		eng.Log = logger
		h := stats.wrap(service.NewChunkHandler(eng, f.recs[w], logger))
		f.wg.Add(1)
		go func(w int) {
			defer f.wg.Done()
			_, f.errs[w] = cloud.RunWorker(ctx, f.ln.Addr().String(), fmt.Sprintf("bench-w%d", w), h)
		}(w)
	}
	if err := f.ln.waitDialed(ctx, fleetWorkers); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop cancels the workers, waits for them and closes the listener.
func (f *fleet) stop() {
	f.cancel()
	f.finish()
}

// finish waits for workers that were served to the end: each leaves on
// the pool's drained nojob, or on its socket closing once
// RunCoordinator has returned.
func (f *fleet) finish() {
	f.wg.Wait()
	f.cancel()
	f.ln.Close()
}

// runDistributed is the distributed-xcode workload: the xcode request
// through service.RunCoordinator with asiccloudd -coordinate's defaults
// and two cloud.RunWorker workers, closed loop, one sweep at a time.
func runDistributed(o options) (*report, error) {
	rep := newReport()
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	req := service.Request{App: "xcode"}
	refBytes, err := service.RunOnce(context.Background(), &req, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	orc := newOracle()
	orc.set("xcode", refBytes)
	refErr := pin(rep, golden, "xcode/result", refBytes)

	setup := &setupSampler{batch: 1, once: func() (time.Duration, time.Duration, error) {
		w := startWatch()
		f, err := startFleet(&handlerStats{})
		if err != nil {
			return 0, 0, err
		}
		cpu, wall := w.elapsed()
		f.stop()
		return cpu, wall, nil
	}}
	if err := setup.sample(setupFirst); err != nil {
		return nil, err
	}

	type phaseOut struct {
		lat, cpu              samples
		configs               int64
		bytesIn, bytesOut     int64
		chunks                int
		busy                  time.Duration
		requeued              int64
		chunkP50, sweepWall   samples
		decode                samples
		planHits, planLookups int64
	}
	tr := newTracer()
	coordLog := obs.NewLogger(io.Discard, slog.LevelInfo)
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
			reqID := len(p.lat)
			stats := &handlerStats{capture: traced && len(p.decode) == 0, req: reqID}
			if traced {
				stats.tr = tr
			}
			f, err := startFleet(stats)
			if err != nil {
				return p, err
			}
			rec := obs.NewRecorder()
			ctx, root := rec.StartSpan(context.Background(), "bench")
			c1, t1 := cpuTime(), time.Now()
			out, err := service.RunCoordinator(ctx, &req, f.ln, rec, service.CoordinatorOptions{
				LeaseDuration: leaseDuration,
				Logger:        coordLog,
			})
			lat, cpu := time.Since(t1), cpuTime()-c1
			p.cpu.addDur(cpu)
			root.End()
			f.finish()
			rep.attempted++
			p.lat.addDur(lat)
			for _, e := range f.errs {
				if err == nil && e != nil {
					err = fmt.Errorf("worker: %w", e)
				}
			}
			if err == nil {
				err = refErr
			}
			if err == nil {
				err = orc.check("xcode", out)
			}
			if err != nil {
				rep.fail(err)
				continue
			}
			if g, err := generated(out); err == nil {
				p.configs += g
			}
			p.bytesIn += f.ln.in.Load()
			p.bytesOut += f.ln.out.Load()
			p.chunks += stats.calls
			p.busy += stats.busy
			if !traced {
				continue
			}
			p.requeued += rec.Registry().Counters()["asiccloud_pool_requeued_total"]
			p.chunkP50 = append(p.chunkP50, rec.Registry().Histograms()["asiccloud_pool_job_seconds"].P50)
			tr.record(reqID, -1, "client.coordinate", t1, t1.Add(lat))
			importTrace(tr, reqID, rec, root)
			var first, last time.Time
			for _, wr := range f.recs {
				spans, _ := wr.Trace(root.TraceID())
				for _, s := range spans {
					if s.Name != "chunk" {
						continue
					}
					start, err := time.Parse(time.RFC3339Nano, s.Start)
					if err != nil {
						continue
					}
					end := start.Add(time.Duration(s.Seconds * float64(time.Second)))
					if first.IsZero() || start.Before(first) {
						first = start
					}
					if end.After(last) {
						last = end
					}
				}
				importSpans(tr, reqID, spans)
				st := wr.Registry().Counters()
				p.planHits += st["asiccloud_engine_plan_cache_hits_total"]
				p.planLookups += st["asiccloud_engine_plan_cache_hits_total"] + st["asiccloud_engine_plan_cache_misses_total"]
			}
			p.sweepWall.addDur(last.Sub(first))
			if stats.capture {
				t := time.Now()
				for _, b := range stats.outputs {
					var cr core.ChunkResult
					if err := json.Unmarshal(b, &cr); err != nil {
						return p, fmt.Errorf("re-decode chunk result: %w", err)
					}
				}
				p.decode.addDur(time.Since(t))
				stats.outputs = nil
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
	n := float64(len(t.lat))
	rep.tracedE2E = t.lat.mean()
	L["obs.tracing_overhead_s"] = t.lat.mean() - u.lat.mean()
	L["cloud.wire_bytes_in"] = float64(t.bytesIn) / n
	L["cloud.wire_bytes_out"] = float64(t.bytesOut) / n
	L["cloud.chunks"] = float64(t.chunks) / n
	L["cloud.jobs_requeued"] = float64(t.requeued) / n
	L["cloud.chunk_s_p50"] = t.chunkP50.median()
	L["cloud.handler_s"] = t.busy.Seconds() / n
	L["cloud.worker_utilization"] = t.busy.Seconds() / (fleetWorkers * t.lat.sum())
	L["cloud.chunk_decode_s"] = t.decode.mean()
	L["core.sweep_s"] = t.sweepWall.mean()
	L["core.plan_cache_hit_ratio"] = ratio(float64(t.planHits), float64(t.planLookups))
	L["workload.distinct_share"] = 1
	L["workload.engine_run_share"] = 1

	// The coordinator's PlanSweep plus the grid rebuild inside every
	// EvaluateChunk.
	L["core.grid_builds"] = 1 + L["cloud.chunks"]
	canon, hash, err := timeCanonicalize([][]byte{[]byte(`{"app":"xcode"}`)})
	if err != nil {
		return nil, err
	}
	// The coordinator and every chunk handler canonicalize and hash.
	L["service.canonicalize_s"] = canon * L["core.grid_builds"]
	L["service.hash_s"] = hash * L["core.grid_builds"]
	L["service.result_bytes"] = float64(len(refBytes))

	rp := newReplayer(tr)
	can, err := service.Canonicalize(&req)
	if err != nil {
		return nil, err
	}
	sw, model, err := can.Plan()
	if err != nil {
		return nil, err
	}
	rres, err := rp.sweep(2_000_000, sw, model, core.DefaultChunkSize)
	rep.attempted++
	if err == nil {
		err = checkReplay(core.NewEngine(nil), rres, sw, model)
	}
	if err != nil {
		rep.fail(fmt.Errorf("replay: %w", err))
	}
	self := tr.selfTimes()
	L["core.grid_build_s"] = self["core.grid_build"].Seconds() * L["core.grid_builds"]
	L["core.merge_s"] = self["core.merge"].Seconds()
	L["core.finish_s"] = self["core.finish"].Seconds()
	rep.budget = []budgetRow{
		{layer: "core.grid_build (coordinator)", seconds: self["core.grid_build"].Seconds()},
		{layer: "core.sweep (fleet, first to last chunk)", seconds: L["core.sweep_s"]},
		{layer: "core.finish", seconds: L["core.finish_s"]},
		{layer: "cloud.handler (both workers)", seconds: L["cloud.handler_s"], inside: "core.sweep"},
		{layer: "cloud.chunk_decode", seconds: L["cloud.chunk_decode_s"], inside: "core.sweep"},
		{layer: "core.merge", seconds: L["core.merge_s"], inside: "core.sweep"},
	}
	replayLayers(rep, tr, rp, "core.sweep", true)
	rep.unexplained()
	fillZeros(rep)
	return rep, tr.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)))
}

// checkReplay compares a replayed Result with the engine's streaming
// path on the same sweep.
func checkReplay(eng *core.Engine, got core.Result, sw core.Sweep, model tco.Model) error {
	eng.DiscardPoints = true
	want, err := eng.Explore(sw, model)
	if err != nil {
		return err
	}
	gb, err := answerBytes(got)
	if err != nil {
		return err
	}
	wb, err := answerBytes(want)
	if err != nil {
		return err
	}
	o := oracle{want: map[string][]byte{"replay": wb}}
	return o.check("replay", gb)
}
