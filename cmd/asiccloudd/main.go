// Command asiccloudd serves ASIC Cloud design-space exploration over
// HTTP: sweeps are submitted as JSON jobs, run asynchronously on a
// bounded worker pool sharing one exploration engine, and identical
// requests are answered byte-for-byte from a result cache. See API.md
// for the endpoint reference and DESIGN.md for the job lifecycle.
//
// Beyond the HTTP daemon (the default), three one-shot modes run a
// single sweep from a request file:
//
//	asiccloudd -once -request req.json [-o result.json]
//	asiccloudd -coordinate -request req.json [-pool-addr 127.0.0.1:0]
//	           [-chunk N] [-lease 10s] [-o result.json]
//	asiccloudd -worker -join HOST:PORT
//
// -once runs the sweep in-process. -coordinate partitions it into
// chunks and serves them over the cloud pool protocol to any number of
// -worker processes, merging their partial frontiers into the same
// bytes -once produces. Workers exit 0 when the coordinator drains
// them cleanly and non-zero on an unexpected disconnect.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asiccloud/internal/cloud"
	"asiccloud/internal/core"
	"asiccloud/internal/obs"
	"asiccloud/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "asiccloudd: %v\n", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("asiccloudd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 0, "concurrent sweep jobs (default 2)")
	queueDepth := fs.Int("queue-depth", 0, "max jobs queued behind the pool (default 64)")
	cacheEntries := fs.Int("cache-entries", 0, "result cache capacity (default 128, negative disables)")
	defaultTimeout := fs.Duration("default-timeout", 0, "per-job timeout when the request names none (default 2m)")
	maxTimeout := fs.Duration("max-timeout", 0, "clamp on request-supplied timeouts (default 10m)")
	grace := fs.Duration("grace", 30*time.Second, "shutdown grace before in-flight sweeps are hard-canceled")
	logLevel := fs.String("log-level", "info", "structured log threshold: debug, info, warn or error")
	workerMode := fs.Bool("worker", false, "join a coordinator's pool as a distributed sweep worker")
	join := fs.String("join", "", "coordinator pool address to join (with -worker)")
	workerID := fs.String("id", "", "worker identifier reported to the pool (default host-pid)")
	coordinate := fs.Bool("coordinate", false, "coordinate one distributed sweep: serve chunks to -worker processes")
	once := fs.Bool("once", false, "run one sweep in-process (the single-process baseline for -coordinate)")
	requestFile := fs.String("request", "", `request JSON file for -coordinate / -once ("-" reads stdin)`)
	poolAddr := fs.String("pool-addr", "127.0.0.1:0", "pool listen address (with -coordinate)")
	chunkSize := fs.Int("chunk", 0, fmt.Sprintf(
		"geometries per distributed chunk, one pool job each (0 picks %d; with -coordinate)", core.DistributedChunkSize))
	lease := fs.Duration("lease", 10*time.Second, "chunk lease before requeue to the fleet (0 disables; with -coordinate)")
	outFile := fs.String("o", "", "write the result JSON here instead of stdout (with -coordinate / -once)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	modes := 0
	for _, on := range []bool{*workerMode, *coordinate, *once} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-worker, -coordinate and -once are mutually exclusive")
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	// JSON log lines go to stderr, keeping stdout for the machine-read
	// "listening on" line below (and for one-shot result bytes).
	logger := obs.NewLogger(os.Stderr, level)
	rec := obs.NewRecorder()

	switch {
	case *workerMode:
		return runWorker(*join, *workerID, rec, logger)
	case *coordinate:
		return runCoordinate(*requestFile, *poolAddr, *outFile, service.CoordinatorOptions{
			ChunkSize:     *chunkSize,
			LeaseDuration: *lease,
			Logger:        logger,
		}, rec)
	case *once:
		return runOnce(*requestFile, *outFile, rec, logger)
	}

	obs.RegisterRuntimeMetrics(rec.Registry())
	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		Logger:         logger,
	}, rec)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// The smoke script and quickstart parse this line for the bound port,
	// so it goes to stdout and stays machine-readable.
	fmt.Printf("asiccloudd: listening on %s\n", ln.Addr())
	logger.Info("daemon started",
		"addr", ln.Addr().String(),
		"log_level", level.String())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		logger.Info("draining on signal", "signal", sig.String(), "grace", grace.String())
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain the job pool first so status endpoints stay reachable while
	// in-flight sweeps finish, then close the listener.
	if err := svc.Shutdown(ctx); err != nil {
		logger.Warn("grace expired, in-flight sweeps canceled")
	}
	if err := httpSrv.Shutdown(ctx); err != nil && err != context.DeadlineExceeded {
		return fmt.Errorf("http shutdown: %w", err)
	}
	logger.Info("daemon stopped")
	return nil
}

// joinRetryWindow bounds how long a starting worker retries a refused
// connection — the window in which its coordinator may not be
// listening yet.
const joinRetryWindow = 30 * time.Second

// runWorker joins a coordinator's pool and evaluates sweep chunks on a
// local engine until the pool drains. A refused connection is retried
// briefly (workers often start before the coordinator binds); once
// joined, only the coordinator's explicit drained nojob is a clean
// exit — an unexpected disconnect exits non-zero.
func runWorker(join, id string, rec *obs.Recorder, logger *slog.Logger) error {
	if join == "" {
		return errors.New("-worker requires -join HOST:PORT")
	}
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng := core.NewEngine(rec)
	eng.Log = logger
	handler := service.NewChunkHandler(eng, rec, logger)
	deadline := time.Now().Add(joinRetryWindow)
	for {
		done, err := cloud.RunWorker(ctx, join, id, handler)
		if err == nil {
			fmt.Printf("asiccloudd: worker %s drained after %d chunks\n", id, done)
			return nil
		}
		if done == 0 && errors.Is(err, syscall.ECONNREFUSED) &&
			time.Now().Before(deadline) && ctx.Err() == nil {
			logger.Debug("pool not accepting yet, retrying", "addr", join)
			time.Sleep(250 * time.Millisecond)
			continue
		}
		return err
	}
}

// runCoordinate runs one distributed sweep: bind the pool, announce
// the address for workers (and scripts) to join, and render the merged
// result.
func runCoordinate(requestFile, poolAddr, outFile string, opts service.CoordinatorOptions, rec *obs.Recorder) error {
	req, err := readRequest(requestFile)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", poolAddr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The distributed smoke script parses this line for the pool port,
	// so it goes to stdout and stays machine-readable.
	fmt.Printf("asiccloudd: coordinating on %s\n", ln.Addr())
	out, err := service.RunCoordinator(ctx, req, ln, rec, opts)
	if err != nil {
		return err
	}
	return writeResult(outFile, out)
}

// runOnce runs the sweep in-process, producing the exact bytes a
// distributed run of the same request must match.
func runOnce(requestFile, outFile string, rec *obs.Recorder, logger *slog.Logger) error {
	req, err := readRequest(requestFile)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := service.RunOnce(ctx, req, rec, logger)
	if err != nil {
		return err
	}
	return writeResult(outFile, out)
}

// readRequest loads and decodes a request file with the same strict
// field checking the HTTP daemon applies, so a request rejected by one
// front end is rejected by all of them.
func readRequest(path string) (*service.Request, error) {
	if path == "" {
		return nil, errors.New("-request FILE is required")
	}
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	req, err := service.DecodeRequest(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("decode request %s: %w", path, err)
	}
	return req, nil
}

// writeResult sends the rendered result JSON to the named file, or to
// stdout when no -o was given.
func writeResult(outFile string, b []byte) error {
	if outFile == "" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(outFile, b, 0o644)
}
