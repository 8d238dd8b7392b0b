package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters never go down
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if reg.Counter("jobs_total") != c {
		t.Error("same name should return the same counter")
	}

	g := reg.Gauge("depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("gauge = %v, want 1.5", got)
	}

	labeled := reg.Counter("pruned_total", "reason", "thermal")
	labeled.Add(7)
	if reg.Counter("pruned_total", "reason", "dram").Value() != 0 {
		t.Error("different labels must be different series")
	}
	if got := reg.Counters()[`pruned_total{reason="thermal"}`]; got != 7 {
		t.Errorf("snapshot = %d, want 7", got)
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	var rec *Recorder
	// None of these may panic.
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(1)
	reg.Histogram("z", nil).Observe(1)
	// core.NewEngine registers help text through a possibly-nil
	// recorder's registry at construction time, before any sweep runs.
	reg.SetHelp("x", "help on a nil registry is a no-op")
	reg.WritePrometheus(io.Discard)
	rec.Counter("x").Add(2)
	rec.Gauge("y").Add(1)
	rec.Histogram("z", nil).Observe(0.1)
	sp := rec.Span("root")
	sp.Child("leaf").End()
	sp.End()
	if rec.Slowest(5) != nil {
		t.Error("nil recorder should have no spans")
	}
	if rec.Registry() != nil {
		t.Error("nil recorder registry should be nil")
	}
	_ = NewReport("cmd", rec)
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{0.1, 0.2, 0.4, 0.8})
	for i := 0; i < 100; i++ {
		h.Observe(0.15) // all in the (0.1, 0.2] bucket
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if q := h.Quantile(0.5); q < 0.1 || q > 0.2 {
		t.Errorf("p50 = %v, want within (0.1, 0.2]", q)
	}
	h.Observe(100) // lands in +Inf, quantile clamps to last bound
	if q := h.Quantile(1.0); q != 0.8 {
		t.Errorf("p100 = %v, want clamp to 0.8", q)
	}
	var empty *Histogram
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("nil histogram quantile should be NaN")
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("asiccloud_explore_configs_total", "candidate configurations generated")
	reg.Counter("asiccloud_explore_configs_total").Add(42)
	reg.Counter("asiccloud_explore_pruned_total", "reason", "thermal_infeasible").Add(9)
	reg.Gauge("asiccloud_explore_worker_utilization", "worker", "0").Set(0.75)
	reg.Histogram("asiccloud_pool_job_seconds", []float64{0.01, 0.1}).Observe(0.05)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP asiccloud_explore_configs_total candidate configurations generated",
		"# TYPE asiccloud_explore_configs_total counter",
		"asiccloud_explore_configs_total 42",
		`asiccloud_explore_pruned_total{reason="thermal_infeasible"} 9`,
		`asiccloud_explore_worker_utilization{worker="0"} 0.75`,
		"# TYPE asiccloud_pool_job_seconds histogram",
		`asiccloud_pool_job_seconds_bucket{le="0.01"} 0`,
		`asiccloud_pool_job_seconds_bucket{le="0.1"} 1`,
		`asiccloud_pool_job_seconds_bucket{le="+Inf"} 1`,
		"asiccloud_pool_job_seconds_sum 0.05",
		"asiccloud_pool_job_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSpansAndSlowest(t *testing.T) {
	rec := NewRecorder()
	root := rec.Span("explore")
	grid := root.Child("grid_build")
	time.Sleep(2 * time.Millisecond)
	grid.End()
	sweep := root.Child("sweep")
	time.Sleep(10 * time.Millisecond)
	sweep.End()
	root.End()

	slow := rec.Slowest(2)
	if len(slow) != 2 {
		t.Fatalf("slowest = %v, want 2 entries", slow)
	}
	if slow[0].Span != "explore" || slow[1].Span != "explore/sweep" {
		t.Errorf("order = %v, want explore then explore/sweep", slow)
	}
	// Span durations land in a histogram, so repeated spans on one path
	// accumulate sum+count instead of last-write-wins.
	h := rec.Histogram("asiccloud_span_seconds", nil, "span", "explore/sweep")
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Errorf("span histogram count=%d sum=%v, want 1 observation > 0", h.Count(), h.Sum())
	}
	rec.Span("explore").Child("sweep").End() // same path again
	if h.Count() != 2 {
		t.Errorf("repeated span path count = %d, want 2 (aggregates must survive)", h.Count())
	}
	tree := rec.TraceTree()
	if !strings.Contains(tree, "grid_build") || !strings.Contains(tree, "sweep") {
		t.Errorf("trace tree missing spans:\n%s", tree)
	}
	// End is idempotent.
	d1 := sweep.End()
	d2 := sweep.End()
	if d1 != d2 {
		t.Error("repeated End changed the duration")
	}
}

func TestConcurrentRegistry(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("c").Inc()
				reg.Gauge("g").Add(1)
				reg.Histogram("h", nil).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := reg.Histogram("h", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("asiccloud_explore_configs_total").Add(3)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "asiccloud_explore_configs_total 3") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body = get("/debug/vars")
	if code != 200 {
		t.Errorf("/debug/vars = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("expvar output is not JSON: %v", err)
	}
	if _, ok := vars["asiccloud_metrics"]; !ok {
		t.Error("expvar missing asiccloud_metrics")
	}
	if code, body = get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

// TestDebugVarsPerRegistry checks that each handler's /debug/vars
// shows its own registry, beside the process's expvar variables.
func TestDebugVarsPerRegistry(t *testing.T) {
	vars := func(reg *Registry) map[string]json.RawMessage {
		t.Helper()
		rr := httptest.NewRecorder()
		Handler(reg).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
		var v map[string]json.RawMessage
		if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
			t.Fatalf("/debug/vars is not JSON: %v\n%s", err, rr.Body)
		}
		return v
	}
	a, b := NewRegistry(), NewRegistry()
	a.Counter("a_total").Add(2)
	b.Counter("b_total").Add(3)
	for _, c := range []struct {
		reg      *Registry
		own, not string
		ownValue int64
	}{{a, "a_total", "b_total", 2}, {b, "b_total", "a_total", 3}} {
		v := vars(c.reg)
		if _, ok := v["memstats"]; !ok {
			t.Error("/debug/vars lacks the process variable memstats")
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(v["asiccloud_metrics"], &m); err != nil {
			t.Fatalf("asiccloud_metrics: %v", err)
		}
		if got := string(m[c.own]); got != strconv.FormatInt(c.ownValue, 10) {
			t.Errorf("asiccloud_metrics[%s] = %q, want %d", c.own, got, c.ownValue)
		}
		if _, ok := m[c.not]; ok {
			t.Errorf("asiccloud_metrics shows %s from another registry", c.not)
		}
	}
}

// TestHandlerReleasesRegistry checks that mounting a registry keeps
// no process-wide reference to it: a process that starts and stops
// many servers must not hold every registry it ever served.
func TestHandlerReleasesRegistry(t *testing.T) {
	collected := make(chan struct{})
	func() {
		reg := NewRegistry()
		reg.Counter("c_total").Inc()
		runtime.SetFinalizer(reg, func(*Registry) { close(collected) })
		h := Handler(reg)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a registry whose handler is gone was never collected")
}

func TestReportJSONRoundTrip(t *testing.T) {
	rec := NewRecorder()
	rec.Counter("asiccloud_explore_configs_total").Add(10)
	sp := rec.Span("explore")
	time.Sleep(time.Millisecond)
	sp.End()

	r := NewReport("design -app bitcoin", rec)
	r.Explore = &ExploreReport{
		Generated: 10, Feasible: 4, ConfigsPerSec: 123,
		Pruned:       map[string]int64{"thermal_infeasible": 6},
		FrontierSize: 2,
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Explore == nil || back.Explore.Generated != 10 ||
		back.Explore.Pruned["thermal_infeasible"] != 6 {
		t.Errorf("round trip lost data: %+v", back.Explore)
	}
	text := r.Text()
	for _, want := range []string{"configs generated: 10", "thermal_infeasible", "slowest spans"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
	// JSON file form.
	path := t.TempDir() + "/report.json"
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
}
