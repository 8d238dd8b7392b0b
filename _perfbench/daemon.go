package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"asiccloud/internal/core"
	"asiccloud/internal/obs"
	"asiccloud/internal/service"
)

// daemon is one in-process asiccloudd with its defaults: a recorder
// attached and info-level JSON logs, here to a discard sink.
type daemon struct {
	svc    *service.Server
	srv    *http.Server
	served chan error
	client *http.Client
	tp     *http.Transport
	base   string
}

// startDaemon builds the daemon and returns once it answers
// /v1/healthz.
func startDaemon() (*daemon, error) {
	rec := obs.NewRecorder()
	obs.RegisterRuntimeMetrics(rec.Registry())
	svc := service.New(service.Config{Logger: obs.NewLogger(io.Discard, slog.LevelInfo)}, rec)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx) // the listen error is the one reported
		return nil, err
	}
	d := &daemon{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		tp:     &http.Transport{MaxIdleConnsPerHost: 4},
		base:   "http://" + ln.Addr().String(),
	}
	d.client = &http.Client{Transport: d.tp, Timeout: 2 * time.Minute}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := d.client.Get(d.base + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon as asiccloudd does on SIGTERM and waits for
// its goroutines.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.svc.Shutdown(ctx)
	if e := d.srv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-d.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	d.tp.CloseIdleConnections()
	return err
}

// answer is one request as a client saw it.
type answer struct {
	distinct int
	req      int
	lat      time.Duration
	status   service.StatusJSON
	body     []byte
	err      error
}

// get fetches a path and returns the body of a 200 response.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// do submits one request, waits for it on the job's event stream and
// fetches the result, timing the whole exchange.
func (d *daemon) do(body []byte, tr *tracer, req int) answer {
	root := tr.begin(req, -1, "client.request")
	defer tr.end(root)
	t0 := time.Now()
	st, err := d.submit(body, tr, req, root)
	if err == nil && !st.State.Terminal() {
		st, err = d.wait(st.ID, tr, req, root)
	}
	if err == nil && st.State != service.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var b []byte
	if err == nil {
		id := tr.begin(req, root, "client.result")
		b, err = d.get("/v1/sweeps/" + st.ID + "/result")
		tr.end(id)
	}
	return answer{req: req, lat: time.Since(t0), status: st, body: b, err: err}
}

func (d *daemon) submit(body []byte, tr *tracer, req, parent int) (service.StatusJSON, error) {
	id := tr.begin(req, parent, "client.submit")
	defer tr.end(id)
	var st service.StatusJSON
	resp, err := d.client.Post(d.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("POST /v1/sweeps: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("decode status: %w", err)
	}
	return st, nil
}

// wait reads the job's server-sent events until the terminal status.
func (d *daemon) wait(jobID string, tr *tracer, req, parent int) (service.StatusJSON, error) {
	id := tr.begin(req, parent, "client.events")
	defer tr.end(id)
	var st service.StatusJSON
	resp, err := d.client.Get(d.base + "/v1/sweeps/" + jobID + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return st, fmt.Errorf("decode event: %w", err)
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("event stream for %s ended before a terminal status", jobID)
}

// roundOut is what one daemon session left behind.
type roundOut struct {
	window  time.Duration
	cpu     time.Duration
	answers []answer
	// From the daemon after the round.
	cacheHits, cacheMisses int64
	plan                   core.CacheStats
	traces                 map[string]service.TraceJSON // by job ID, traced rounds only
}

// daemonRound starts a fresh daemon, plays the session's two clients
// against it closed loop, and stops it.
func daemonRound(sess session, tr *tracer, reqBase int) (roundOut, error) {
	var out roundOut
	d, err := startDaemon()
	if err != nil {
		return out, fmt.Errorf("start daemon: %w", err)
	}
	answers := make([][]answer, len(sess.Clients))
	var wg sync.WaitGroup
	c0, start := cpuTime(), time.Now()
	for c := range sess.Clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, k := range sess.Clients[c] {
				a := d.do(sess.Bodies[k], tr, reqBase+c*1000+i)
				a.distinct = k
				answers[c] = append(answers[c], a)
			}
		}(c)
	}
	wg.Wait()
	out.window, out.cpu = time.Since(start), cpuTime()-c0
	for _, a := range answers {
		out.answers = append(out.answers, a...)
	}

	// Outside the timed region: the daemon's own counters and traces.
	out.plan = d.svc.Engine().CacheStats()
	var health struct {
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
	}
	b, err := d.get("/v1/healthz")
	if err == nil {
		err = json.Unmarshal(b, &health)
	}
	out.cacheHits, out.cacheMisses = health.CacheHits, health.CacheMisses
	if err == nil && tr != nil {
		out.traces = make(map[string]service.TraceJSON)
		for _, a := range out.answers {
			if a.err != nil || a.status.Cached {
				continue
			}
			var tj service.TraceJSON
			b, e := d.get("/v1/sweeps/" + a.status.ID + "/trace")
			if e == nil {
				e = json.Unmarshal(b, &tj)
			}
			if e != nil {
				err = e
				break
			}
			out.traces[a.status.ID] = tj
		}
	}
	if e := d.stop(); err == nil {
		err = e
	}
	return out, err
}

// runDaemon is the daemon-study workload.
func runDaemon(o options) (*report, error) {
	rep := newReport()
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	sess, err := newSession(o.seed)
	if err != nil {
		return nil, err
	}
	// References: service.RunOnce for every distinct request.
	orc := newOracle()
	refs, err := runOnceAll(sess.Distinct)
	if err != nil {
		return nil, err
	}
	var joined bytes.Buffer
	for i, b := range refs {
		orc.set(fmt.Sprint(i), b)
		fmt.Fprintln(&joined, digest(b))
	}
	refErr := pin(rep, golden, fmt.Sprintf("daemon-study/seed%d", o.seed), joined.Bytes())

	setup := &setupSampler{batch: 1, once: func() (time.Duration, time.Duration, error) {
		w := startWatch()
		d, err := startDaemon()
		if err != nil {
			return 0, 0, err
		}
		cpu, wall := w.elapsed()
		return cpu, wall, d.stop()
	}}
	if err := setup.sample(setupFirst); err != nil {
		return nil, err
	}

	type phaseOut struct {
		rounds                 int
		window                 time.Duration
		cpu                    samples
		run, hit               samples
		requests, engineRuns   int
		configs                int64
		cacheHits, cacheLookup int64
		planHits, planLookups  int64
		dupMisses, dupRuns     int64
		resultBytes            int64
		httpS, queueS, runS    samples
		grid, sweep, finish    samples
		marshal                samples
	}
	tr := newTracer()
	runPhase := func(d time.Duration, traced bool) (phaseOut, error) {
		var p phaseOut
		var ptr *tracer
		if traced {
			ptr = tr
		}
		deadline := time.Now().Add(d)
		for p.rounds == 0 || time.Now().Before(deadline) {
			if !traced {
				if err := setup.sample(setupEach); err != nil {
					return p, err
				}
			}
			quiesce()
			r, err := daemonRound(sess, ptr, p.rounds*10000)
			if err != nil {
				return p, err
			}
			p.rounds++
			p.window += r.window
			p.cacheHits += r.cacheHits
			p.cacheLookup += r.cacheHits + r.cacheMisses
			p.planHits += r.plan.Hits
			p.planLookups += r.plan.Hits + r.plan.Misses
			p.dupMisses += r.plan.Misses - int64(r.plan.Entries)
			hashes := make(map[string]bool)
			runs := 0
			for _, a := range r.answers {
				rep.attempted++
				p.requests++
				if a.err != nil {
					rep.fail(a.err)
					continue
				}
				// A wrong answer still took its time: it is timed, and
				// counted failed.
				if err := errors.Join(refErr, orc.check(fmt.Sprint(a.distinct), a.body)); err != nil {
					rep.fail(err)
				}
				p.resultBytes += int64(len(a.body))
				if a.status.Cached {
					p.hit.addDur(a.lat)
					continue
				}
				runs++
				hashes[a.status.RequestHash] = true
				p.run.addDur(a.lat)
				if sum, err := generated(a.body); err == nil {
					p.configs += sum
				}
				created, _ := time.Parse(time.RFC3339Nano, a.status.CreatedAt)
				started, _ := time.Parse(time.RFC3339Nano, a.status.StartedAt)
				finished, _ := time.Parse(time.RFC3339Nano, a.status.FinishedAt)
				p.httpS.addDur(a.lat - finished.Sub(created))
				p.queueS.addDur(started.Sub(created))
				p.runS.addDur(finished.Sub(started))
				if tj, ok := r.traces[a.status.ID]; ok {
					ph := importSpans(tr, a.req, tj.Spans)
					p.grid.addDur(ph["grid_build"])
					p.sweep.addDur(ph["sweep"])
					p.finish.addDur(ph["pareto"])
					p.marshal.addDur(finished.Sub(started) - ph["explore"])
				}
			}
			p.engineRuns += runs
			if runs > 0 {
				p.cpu = append(p.cpu, r.cpu.Seconds()/float64(runs))
			}
			p.dupRuns += int64(runs - len(hashes))
		}
		return p, nil
	}

	untracedLen, tracedLen := phaseLengths(o)
	u, err := runPhase(untracedLen, false)
	if err != nil {
		return nil, err
	}
	win := u.window.Seconds()
	setup.report(rep)
	rep.e2e["cpu_s_per_sweep"] = u.cpu.median()
	rep.describe("cpu_s_per_sweep", u.cpu)
	L := rep.layers
	L["wall.sweep_s_p50"] = u.run.median()
	L["wall.sweeps_per_s"] = float64(u.requests) / win
	L["wall.configs_per_s"] = float64(u.configs) / win
	rep.describe("wall.sweep_s_p50", u.run)
	if p, ok := tailPercentile(len(u.run)); !ok || p < 90 {
		rep.notes = append(rep.notes, fmt.Sprintf("wall.sweep_s_p90 rests on %d samples, fewer than ten beyond p90", len(u.run)))
	}
	L["wall.sweep_s_p90"] = u.run.quantile(0.9)
	L["wall.hit_s_p50"] = u.hit.median()
	rep.counts["wall.sweep_s_p90"], rep.counts["wall.hit_s_p50"] = len(u.run), len(u.hit)
	L["workload.distinct_share"] = float64(len(sess.Distinct)) / float64(sess.requests())
	L["workload.hit_share"] = float64(len(u.hit)) / float64(u.requests)
	L["workload.engine_run_share"] = float64(u.engineRuns) / float64(u.requests)
	rep.notes = append(rep.notes, fmt.Sprintf("traffic: %d sessions of %d requests, %d distinct; shares: distinct %.4g, cache hits %.4g, engine runs %.4g, plan-cache hits %.4g",
		u.rounds, sess.requests(), len(sess.Distinct), L["workload.distinct_share"], L["workload.hit_share"],
		L["workload.engine_run_share"], ratio(float64(u.planHits), float64(u.planLookups))))
	if !o.trace {
		return rep, nil
	}

	t, err := runPhase(tracedLen, true)
	if err != nil {
		return nil, err
	}
	rep.tracedE2E = t.run.mean()
	L["obs.tracing_overhead_s"] = t.run.mean() - u.run.mean()
	L["core.grid_build_s"] = t.grid.mean()
	L["core.grid_builds"] = 1
	L["core.sweep_s"] = t.sweep.mean()
	L["core.finish_s"] = t.finish.mean()
	L["core.plan_cache_hit_ratio"] = ratio(float64(t.planHits), float64(t.planLookups))
	L["core.plan_dup_misses"] = float64(t.dupMisses) / float64(t.rounds)
	L["service.http_s_p50"] = t.httpS.median()
	L["service.queue_wait_s_p50"] = t.queueS.median()
	L["service.run_s_p50"] = t.runS.median()
	L["service.marshal_s"] = t.marshal.mean()
	L["service.result_bytes"] = float64(t.resultBytes) / float64(t.requests)
	L["service.result_cache_hit_ratio"] = ratio(float64(t.cacheHits), float64(t.cacheLookup))
	L["service.duplicate_runs"] = float64(t.dupRuns) / float64(t.rounds)
	canon, hash, err := timeCanonicalize(sess.Bodies)
	if err != nil {
		return nil, err
	}
	L["service.canonicalize_s"] = canon
	L["service.hash_s"] = hash
	rep.budget = []budgetRow{
		{layer: "service.http", seconds: t.httpS.mean()},
		{layer: "service.queue_wait", seconds: t.queueS.mean()},
		{layer: "core.grid_build", seconds: L["core.grid_build_s"]},
		{layer: "core.sweep", seconds: L["core.sweep_s"]},
		{layer: "core.finish", seconds: L["core.finish_s"]},
		{layer: "service.marshal (by difference)", seconds: L["service.marshal_s"]},
	}

	// Replay every distinct request in order on one plan cache, the
	// cache state a fresh daemon's engine goes through.
	rp := newReplayer(tr)
	check := core.NewEngine(nil)
	for i, req := range sess.Distinct {
		err := replayRequest(rp, check, 1_000_000+i, req)
		rep.attempted++
		if err != nil {
			rep.fail(fmt.Errorf("replay %d: %w", i, err))
		}
	}
	replayLayers(rep, tr, rp, "core.sweep", true)
	rep.unexplained()
	fillZeros(rep)
	return rep, tr.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)))
}

// replayRequest replays one request and checks it against the engine's
// streaming path on the same request.
func replayRequest(rp *replayer, check *core.Engine, req int, r service.Request) error {
	can, err := service.Canonicalize(&r)
	if err != nil {
		return err
	}
	sw, model, err := can.Plan()
	if err != nil {
		return err
	}
	got, err := rp.sweep(req, sw, model, core.DefaultChunkSize)
	if err != nil {
		return err
	}
	return checkReplay(check, got, sw, model)
}

// runOnceAll computes service.RunOnce for each request on two
// goroutines, one per core of the reference machine.
func runOnceAll(reqs []service.Request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += 2 {
				r := reqs[i]
				out[i], errs[i] = service.RunOnce(context.Background(), &r, nil, nil)
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// generated reads the candidate count from a result body.
func generated(body []byte) (int64, error) {
	var r struct {
		Pruned core.PruneSummary `json:"pruned"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	return r.Pruned.Generated, nil
}

// timeCanonicalize times service.Canonicalize and Canonical.Hash per
// request over the session's bodies, decoded as the daemon decodes
// them, repeating until the total is long enough to read.
func timeCanonicalize(bodies [][]byte) (canon, hash float64, err error) {
	reqs := make([]service.Request, len(bodies))
	for i, b := range bodies {
		if err := json.Unmarshal(b, &reqs[i]); err != nil {
			return 0, 0, err
		}
	}
	var canonD, hashD time.Duration
	calls := 0
	for canonD+hashD < 200*time.Millisecond {
		for i := range reqs {
			t0 := time.Now()
			c, err := service.Canonicalize(&reqs[i])
			t1 := time.Now()
			if err != nil {
				return 0, 0, err
			}
			sink = c.Hash()
			t2 := time.Now()
			canonD += t1.Sub(t0)
			hashD += t2.Sub(t1)
			calls++
		}
	}
	return canonD.Seconds() / float64(calls), hashD.Seconds() / float64(calls), nil
}
