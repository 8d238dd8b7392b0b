package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Handler returns the exposition endpoint for a registry:
//
//	/metrics        Prometheus text format
//	/debug/vars     expvar JSON plus asiccloud_metrics, a snapshot of reg
//	/debug/pprof/*  net/http/pprof profiles
//
// The handler holds the only reference it adds to reg, so a registry
// is collected with the last handler that serves it.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		writeVars(w, reg)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "asiccloud observability: /metrics /debug/vars /debug/pprof/")
	})
	return mux
}

// writeVars writes what expvar.Handler writes, the process's published
// variables, with reg's metrics added under asiccloud_metrics.
func writeVars(w http.ResponseWriter, reg *Registry) {
	snap := map[string]any{}
	for k, v := range reg.Counters() {
		snap[k] = v
	}
	for k, v := range reg.Gauges() {
		snap[k] = v
	}
	for k, v := range reg.Histograms() {
		snap[k] = v
	}
	b, err := json.Marshal(snap)
	if err != nil {
		// A NaN or infinite gauge has no JSON form; report the error in
		// the snapshot's place rather than break the document.
		b = []byte(strconv.Quote(err.Error()))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n%q: %s", "asiccloud_metrics", b)
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, ",\n%q: %s", kv.Key, kv.Value)
	})
	fmt.Fprintf(w, "\n}\n")
}

// Serve mounts Handler(reg) on addr in a background goroutine and
// returns the server (for Shutdown/Close) and the bound address, which
// is useful when addr ends in ":0".
func Serve(addr string, reg *Registry) (*http.Server, net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg)}
	//lint:ignore droppederr,goroleak lifecycle is owned by the returned *http.Server: the caller stops it via Shutdown/Close, and Serve's error after that is noise
	go func() { _ = srv.Serve(l) }()
	return srv, l.Addr(), nil
}
