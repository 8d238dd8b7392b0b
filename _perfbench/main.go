// Command perfbench is the repository's benchmark. It drives three
// workloads through the public APIs of internal/core, internal/service
// and internal/cloud in one process, checks every answer against a
// reference outside the timed region, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// benchmark tracing. With -trace 1 the run is split in two halves, the
// first untraced and the second traced, and the metrics are the
// per-layer ones. BENCHMARK.json at the repository root lists both.
//
// Run it from the repository root with
//
//	python3 _perfbench/run.py --workload design-xcode --seed 1 --seconds 30 --trace 0
//
// or build it here with go build and run the binary from the root.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, and the ones a
// later change is held to; every workload reports all of them with
// tracing off. They are CPU time and memory, not wall-clock time: on
// a shared two-vCPU virtual machine (Intel Xeon), the hypervisor's
// steal ranged from under 1% to 40% of CPU time within an hour and
// moved wall-clock sweep times by up to a factor of three, while CPU
// time per sweep moved by under a fifth.
//
// setup_s is the process CPU time of one set-up, from workload start
// until the system can take its first request. cpu_s_per_sweep is the
// process CPU time (all threads, user plus system) per sweep the
// engine ran; on daemon-study it is a session's CPU time, HTTP clients
// and cache hits included, over the session's engine-run sweeps.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s_per_sweep", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers from the traced run. A
// layer a workload does not run reads 0. Times ending in _s are
// seconds per sweep; those taken from the replay are seconds on one
// goroutine. The wall.* figures are the wall-clock end-to-end times,
// reported but not held to a bound (see endToEnd); they come from the
// run's untraced half.
var perLayer = []metricDef{
	{"wall.setup_s", "s"},
	{"wall.sweep_s_p50", "s"},
	{"wall.sweep_s_p90", "s"},
	{"wall.hit_s_p50", "s"},
	{"wall.sweeps_per_s", "1/s"},
	{"wall.configs_per_s", "1/s"},
	{"core.grid_build_s", "s"},
	{"core.grid_builds", "count"},
	{"core.sweep_s", "s"},
	{"core.finish_s", "s"},
	{"core.merge_s", "s"},
	{"core.plan_cache_hit_ratio", "ratio"},
	{"core.plan_dup_misses", "count"},
	{"server.thermal_plan_s", "s"},
	{"server.thermal_plans", "count"},
	{"server.evaluate_column_s", "s"},
	{"server.columns", "count"},
	{"tco.price_s", "s"},
	{"carbon.price_s", "s"},
	{"pareto.fold_s", "s"},
	{"pareto.fold_survivors", "count"},
	{"service.canonicalize_s", "s"},
	{"service.hash_s", "s"},
	{"service.http_s_p50", "s"},
	{"service.queue_wait_s_p50", "s"},
	{"service.run_s_p50", "s"},
	{"service.marshal_s", "s"},
	{"service.result_bytes", "bytes"},
	{"service.result_cache_hit_ratio", "ratio"},
	{"service.duplicate_runs", "count"},
	{"cloud.wire_bytes_in", "bytes"},
	{"cloud.wire_bytes_out", "bytes"},
	{"cloud.chunks", "count"},
	{"cloud.jobs_requeued", "count"},
	{"cloud.chunk_s_p50", "s"},
	{"cloud.handler_s", "s"},
	{"cloud.worker_utilization", "ratio"},
	{"cloud.chunk_decode_s", "s"},
	{"workload.distinct_share", "ratio"},
	{"workload.hit_share", "ratio"},
	{"workload.engine_run_share", "ratio"},
	{"obs.tracing_overhead_s", "s"},
	{"unexplained_s", "s"},
}

// budgetRow is one line of the layer budget table. Rows with an empty
// inside lie on the blocking path of a sweep and add up, with
// unexplained_s, to the traced end-to-end time; the others break a
// blocking row down and are shown for where the time went inside it.
type budgetRow struct {
	layer   string
	seconds float64
	inside  string
}

// report is what a workload hands back to be printed.
type report struct {
	attempted, failed int
	failures          []string
	notes             []string

	e2e    map[string]float64
	layers map[string]float64
	counts map[string]int // samples behind a statistic, by metric name

	// tracedE2E is the mean traced sweep time the budget is a share of.
	tracedE2E float64
	budget    []budgetRow
	// replayWall is the replay's wall time per sweep; inside rows from
	// the replay are shown as a share of it too.
	replayWall float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, counts: map[string]int{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

// describe notes the spread of a metric's samples.
func (r *report) describe(name string, s samples) {
	r.counts[name] = len(s)
	r.notes = append(r.notes, fmt.Sprintf("%s samples: n=%d min %.6g q1 %.6g median %.6g q3 %.6g max %.6g",
		name, len(s), s.quantile(0), s.quantile(0.25), s.quantile(0.5), s.quantile(0.75), s.quantile(1)))
}

// samplesNote is "  (n=N)" for a statistic with a known sample count.
func (r *report) samplesNote(name string) string {
	if c, ok := r.counts[name]; ok {
		return fmt.Sprintf("  (n=%d)", c)
	}
	return ""
}

// unexplained sets unexplained_s: the traced end-to-end time minus the
// blocking rows of the budget.
func (r *report) unexplained() {
	var sum float64
	for _, b := range r.budget {
		if b.inside == "" {
			sum += b.seconds
		}
	}
	r.layers["unexplained_s"] = r.tracedE2E - sum
}

var workloads = map[string]func(options) (*report, error){
	"design-xcode":      runDesign,
	"daemon-study":      runDaemon,
	"distributed-xcode": runDistributed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "design-xcode, daemon-study or distributed-xcode")
	seed := fl.Int64("seed", defaultSeed, "seed the workload's inputs are drawn from")
	seconds := fl.Float64("seconds", 30, "seconds of measurement")
	trace := fl.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (design-xcode, daemon-study, distributed-xcode), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: ".bench_build"}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, *trace)
	fmt.Fprintf(w, "# env go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit())
	w.Flush()

	stat0 := cpuStat()
	rep, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if rep.attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation completed\n", o.workload)
		return 1
	}
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	if st := cpuStat().sub(stat0); st.total() > 0 {
		// Steal is time the hypervisor ran someone else on this
		// machine's CPUs; it inflates every wall-clock figure.
		rep.notes = append(rep.notes, fmt.Sprintf("machine during the run: steal %.1f%%, idle %.1f%% of CPU time",
			100*float64(st[7])/float64(st.total()), 100*float64(st[3])/float64(st.total())))
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	fmt.Fprintf(w, "failed_ratio = %.6g (%d of %d operations)\n",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)

	defs, values := endToEnd, rep.e2e
	if o.trace {
		defs, values = perLayer, rep.layers
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", o.workload, d.name)
			return 1
		}
		fmt.Fprintf(w, "metric %-32s %14.6g %s%s\n", d.name, v, d.unit, rep.samplesNote(d.name))
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if o.trace {
		printBudget(w, o.workload, rep)
	} else {
		for _, d := range perLayer {
			if v, ok := rep.layers[d.name]; ok && strings.HasPrefix(d.name, "wall.") {
				fmt.Fprintf(w, "wall   %-32s %14.6g %s%s  not bounded\n", d.name, v, d.unit, rep.samplesNote(d.name))
			}
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", out)
	return 0
}

// printBudget prints each layer's self time per sweep as a share of
// the traced end-to-end time.
func printBudget(w io.Writer, workload string, r *report) {
	fmt.Fprintf(w, "\nlayer budget, %s: traced end to end %.6g s per sweep\n", workload, r.tracedE2E)
	fmt.Fprintf(w, "  %-40s %12s %9s\n", "layer", "s/sweep", "share")
	for _, b := range r.budget {
		if b.inside != "" {
			continue
		}
		fmt.Fprintf(w, "  %-40s %12.6g %8.1f%%\n", b.layer, b.seconds, 100*ratio(b.seconds, r.tracedE2E))
	}
	u := r.layers["unexplained_s"]
	fmt.Fprintf(w, "  %-40s %12.6g %8.1f%%\n", "unexplained", u, 100*ratio(u, r.tracedE2E))
	inside := map[string][]budgetRow{}
	var parents []string
	for _, b := range r.budget {
		if b.inside == "" {
			continue
		}
		if _, ok := inside[b.inside]; !ok {
			parents = append(parents, b.inside)
		}
		inside[b.inside] = append(inside[b.inside], b)
	}
	for _, p := range parents {
		fmt.Fprintf(w, "  inside %s:\n", p)
		for _, b := range inside[p] {
			share := ""
			if strings.HasPrefix(p, "replay") && r.replayWall > 0 {
				share = fmt.Sprintf("%8.1f%% of replay", 100*b.seconds/r.replayWall)
			}
			fmt.Fprintf(w, "    %-38s %12.6g %s\n", b.layer, b.seconds, share)
		}
	}
}

// procStat holds the first eight fields of /proc/stat's cpu line:
// user, nice, system, idle, iowait, irq, softirq and steal ticks.
type procStat [8]int64

func cpuStat() procStat {
	var st procStat
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return st
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := range st {
		if i+1 < len(f) {
			st[i], _ = strconv.ParseInt(f[i+1], 10, 64)
		}
	}
	return st
}

func (a procStat) sub(b procStat) procStat {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a procStat) total() int64 {
	var t int64
	for _, v := range a {
		t += v
	}
	return t
}

// A run times setupFirst set-ups before measuring and setupEach more
// before every timed operation of its untraced phase, so setup_s, their
// median, samples the machine over the whole run, not its first second.
const (
	setupFirst = 31
	setupEach  = 10
)

// setupSampler times set-ups. once sets the system up batch times and
// returns the CPU and wall time until the system could take its first
// request, summed over the batch, after which it tears the system
// down; a sample is that sum over batch. Every call starts from a
// quiesced process (see quiesce).
type setupSampler struct {
	batch     int
	once      func() (cpu, wall time.Duration, err error)
	cpu, wall samples
}

func (s *setupSampler) sample(n int) error {
	for i := 0; i < n; i++ {
		quiesce()
		c, w, err := s.once()
		if err != nil {
			return err
		}
		s.cpu.addDur(c / time.Duration(s.batch))
		s.wall.addDur(w / time.Duration(s.batch))
	}
	return nil
}

// report sets setup_s and wall.setup_s.
func (s *setupSampler) report(rep *report) {
	rep.e2e["setup_s"] = s.cpu.median()
	rep.layers["wall.setup_s"] = s.wall.median()
	rep.describe("setup_s", s.cpu)
	rep.describe("wall.setup_s", s.wall)
}

// quiesce collects garbage and returns the freed memory to the OS
// before a timed operation, so neither a collection of an earlier
// operation's garbage nor the background scavenger runs inside it, and
// each operation starts, as a fresh process would, with no free memory
// resident.
func quiesce() { debug.FreeOSMemory() }

// stopwatch reads process CPU time and wall time together.
type stopwatch struct {
	cpu  time.Duration
	wall time.Time
}

func startWatch() stopwatch { return stopwatch{cpuTime(), time.Now()} }

func (s stopwatch) elapsed() (cpu, wall time.Duration) {
	return cpuTime() - s.cpu, time.Since(s.wall)
}

// phaseLengths splits a run: all of it untraced, or with -trace 1 an
// untraced half (for the tracing overhead and the untraced tails)
// followed by a traced half.
func phaseLengths(o options) (untraced, traced time.Duration) {
	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		return d, 0
	}
	return d / 2, d / 2
}

// sink keeps set-up results alive so the compiler cannot drop the work.
var sink any

// fillZeros reports 0 for every per-layer metric the workload does not
// exercise.
func fillZeros(rep *report) {
	for _, d := range perLayer {
		if _, ok := rep.layers[d.name]; !ok {
			rep.layers[d.name] = 0
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code measured: the git commit when the checkout is
// a repository, otherwise a digest of the Go sources and go.mod files
// under the working directory.
func commit() string {
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}
