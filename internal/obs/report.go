package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// ExploreReport is the exploration-specific slice of a run report: how
// big the generated space was, how much survived, and why the rest was
// pruned.
type ExploreReport struct {
	Generated     int64            `json:"generated"`
	Feasible      int64            `json:"feasible"`
	ConfigsPerSec float64          `json:"configs_per_sec"`
	Pruned        map[string]int64 `json:"pruned"`
	FrontierSize  int              `json:"frontier_size"`
}

// Report is the structured end-of-run summary a CLI prints and
// serializes. Counters/Gauges/Histograms are full registry dumps so the
// JSON form carries everything the Prometheus endpoint exposed.
type Report struct {
	Command        string                      `json:"command"`
	ElapsedSeconds float64                     `json:"elapsed_seconds"`
	Explore        *ExploreReport              `json:"explore,omitempty"`
	SlowestSpans   []SpanTiming                `json:"slowest_spans,omitempty"`
	Counters       map[string]int64            `json:"counters,omitempty"`
	Gauges         map[string]float64          `json:"gauges,omitempty"`
	Histograms     map[string]HistogramSummary `json:"histograms,omitempty"`
}

// NewReport snapshots a recorder into a report: elapsed wall clock,
// top-5 slowest spans, and full metric dumps. Nil-safe; with a nil
// recorder only Command is filled.
func NewReport(command string, rec *Recorder) *Report {
	r := &Report{Command: command}
	if rec != nil {
		r.ElapsedSeconds = time.Since(rec.Start()).Seconds()
		r.SlowestSpans = rec.Slowest(5)
		reg := rec.Registry()
		r.Counters = reg.Counters()
		r.Gauges = reg.Gauges()
		r.Histograms = reg.Histograms()
	}
	return r
}

// JSON renders the report with stable indentation.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteJSONFile writes the JSON form to path.
func (r *Report) WriteJSONFile(path string) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Text renders the human form of the report.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "── run report: %s ──\n", r.Command)
	fmt.Fprintf(&b, "elapsed: %.3fs\n", r.ElapsedSeconds)
	if e := r.Explore; e != nil {
		fmt.Fprintf(&b, "configs generated: %d  feasible: %d  frontier: %d\n",
			e.Generated, e.Feasible, e.FrontierSize)
		fmt.Fprintf(&b, "throughput: %.0f configs/sec\n", e.ConfigsPerSec)
		if len(e.Pruned) > 0 {
			fmt.Fprintf(&b, "prune breakdown:\n")
			for _, k := range sortedKeys(e.Pruned) {
				fmt.Fprintf(&b, "  %-28s %d\n", k, e.Pruned[k])
			}
		}
	}
	if len(r.Histograms) > 0 {
		fmt.Fprintf(&b, "latencies:\n")
		keys := make([]string, 0, len(r.Histograms))
		for k := range r.Histograms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := r.Histograms[k]
			fmt.Fprintf(&b, "  %-36s n=%-7d p50=%.6fs p99=%.6fs\n", k, h.Count, h.P50, h.P99)
		}
	}
	if len(r.SlowestSpans) > 0 {
		fmt.Fprintf(&b, "top-%d slowest spans:\n", len(r.SlowestSpans))
		for _, s := range r.SlowestSpans {
			fmt.Fprintf(&b, "  %-36s %.6fs\n", s.Span, s.Seconds)
		}
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
