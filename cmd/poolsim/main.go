// Command poolsim demonstrates the scale-out layer of an ASIC Cloud: a
// TCP pool server distributing Bitcoin nonce-range jobs to a fleet of
// worker processes (here goroutines) running the repository's own
// SHA-256 mining core, with difficulty low enough to find shares on a
// laptop. This is the distributed pattern the paper describes: "Machines
// on the network request work to do from a third-party pool server."
//
// Usage:
//
//	poolsim [-workers 4] [-jobs 64] [-range 4096] [-bits 0x2000ffff]
//	        [-metrics-addr :9090] [-trace] [-cpuprofile cpu.out]
//	        [-report-json report.json] [-lease 5s]
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"runtime/pprof"
	"time"

	"asiccloud/internal/apps/bitcoin"
	"asiccloud/internal/cloud"
	"asiccloud/internal/obs"
	"asiccloud/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("poolsim: ")
	workers := flag.Int("workers", 4, "worker count")
	jobs := flag.Int("jobs", 64, "nonce-range jobs to distribute")
	rangeSize := flag.Uint64("range", 4096, "nonces per job")
	bits := flag.Uint("bits", 0x2000ffff, "compact difficulty target")
	lease := flag.Duration("lease", 5*time.Second, "job lease before requeue (0 disables)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve Prometheus /metrics, expvar and pprof on this address (e.g. :9090)")
	trace := flag.Bool("trace", false, "print the span trace with the end-of-run report")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	reportJSON := flag.String("report-json", "", "write the structured run report as JSON to this file")
	logLevel := flag.String("log-level", "warn",
		"pool event log threshold (debug, info, warn, error); JSON lines on stderr")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatalf("bad -log-level %q: %v", *logLevel, err)
	}
	logger := obs.NewLogger(os.Stderr, level)

	var rec *obs.Recorder
	if *metricsAddr != "" || *trace || *cpuprofile != "" || *reportJSON != "" {
		rec = obs.NewRecorder()
	}
	if *metricsAddr != "" {
		_, addr, err := obs.Serve(*metricsAddr, rec.Registry())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", addr)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	header := bitcoin.Header{
		Version: 2,
		Time:    uint32(time.Now().Unix()),
		Bits:    uint32(*bits),
	}
	diff, err := bitcoin.Difficulty(header.Bits)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mining at difficulty %.3g, %d jobs of %d nonces across %d workers\n",
		diff, *jobs, *rangeSize, *workers)

	// The run's root span doubles as the trace every distributed job is
	// stamped with, so worker-side tooling can join the coordinator's
	// trace across the TCP hop.
	rootSpan := rec.Span("poolsim")
	jobList := make([]cloud.Job, *jobs)
	for i := range jobList {
		payload := make([]byte, 4)
		binary.LittleEndian.PutUint32(payload, uint32(uint64(i)*(*rangeSize)))
		jobList[i] = cloud.Job{
			ID:          uint64(i + 1),
			Payload:     payload,
			Traceparent: rootSpan.Traceparent(),
		}
	}
	pool := cloud.NewPool(jobList)
	pool.Instrument(rec)
	pool.SetLogger(logger)
	if *lease > 0 {
		pool.SetLeaseDuration(*lease)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := pool.Serve(ctx, l); err != nil {
			log.Print(err)
		}
	}()
	fmt.Println("pool listening on", l.Addr())

	handler := func(j cloud.Job) ([]byte, error) {
		start := binary.LittleEndian.Uint32(j.Payload)
		h := header
		nonce, found, err := bitcoin.Mine(&h, start, *rangeSize)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, errors.New("range exhausted without a share")
		}
		out := make([]byte, 4)
		binary.LittleEndian.PutUint32(out, nonce)
		return out, nil
	}

	begin := time.Now()
	// The job list is complete before the fleet starts, so the pool can
	// be closed up front: Results will deliver every recorded result
	// and close once the last job resolves.
	pool.Close()
	fleetSpan := rootSpan.Child("fleet")
	total, err := cloud.RunFleet(ctx, l.Addr().String(), "miner", *workers, handler)
	if err != nil {
		log.Print(err)
	}
	fleetSpan.End()
	elapsed := time.Since(begin)
	fmt.Printf("fleet of %d miners processed %d jobs\n", *workers, total)

	s := pool.Stats()
	totalHashes := float64(*jobs) * float64(*rangeSize)
	fmt.Printf("\n%d shares found, %d dry ranges in %v (%.2f MH/s across the fleet)\n",
		s.JobsDone, s.JobsFailed, elapsed.Round(time.Millisecond),
		units.HsToMHs(totalHashes/elapsed.Seconds()))

	// Verify every share. The pool was closed before the fleet ran, so
	// Results delivers each recorded result losslessly and closes once
	// the last job resolved — no drop-on-full, no guessing when the
	// stream is done.
	verifySpan := rootSpan.Child("verify_shares")
	verified := 0
	for r := range pool.Results() {
		if r.Err != "" {
			continue
		}
		h := header
		h.Nonce = binary.LittleEndian.Uint32(r.Output)
		ok, err := bitcoin.CheckProofOfWork(&h)
		if err != nil || !ok {
			log.Fatalf("share from %s does not verify", r.Worker)
		}
		verified++
	}
	fmt.Printf("%d shares verified against the target\n", verified)
	verifySpan.End()
	rootSpan.End()

	if rec != nil {
		report := obs.NewReport("poolsim", rec)
		if *trace {
			fmt.Fprintln(os.Stderr)
			fmt.Fprint(os.Stderr, rec.TraceTree())
		}
		fmt.Fprintln(os.Stderr)
		fmt.Fprint(os.Stderr, report.Text())
		if *reportJSON != "" {
			if err := report.WriteJSONFile(*reportJSON); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "run report written to %s\n", *reportJSON)
		}
	}
}
