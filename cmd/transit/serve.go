package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"transit/internal/engine"
	"transit/internal/engine/diskcache"
	"transit/internal/obs"
	"transit/internal/obs/serve"
	"transit/internal/server"
)

// runServe implements the `transit serve` subcommand: the synthesis job
// server of DESIGN.md §12, mounted on the live-introspection mux so one
// address serves /v1/jobs next to /metrics, /runs, and /trace/live.
//
// Shutdown is a drain, not a kill: SIGINT/SIGTERM stop admission (late
// submissions get 503), queued and running jobs finish (bounded by
// -drain-timeout), the flight recorder dumps its tail, and only then do
// the HTTP server and the disk cache close.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:7878", "address to serve the job API and introspection endpoints on")
	cacheDir := fs.String("cache-dir", "", "persist the memo cache in this directory (empty = memory only)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "disk-cache size cap in bytes (0 = default 256 MiB)")
	maxInflight := fs.Int("max-inflight", 2, "jobs running at once (worker-pool size)")
	queueDepth := fs.Int("queue", 64, "admission-queue depth; submissions beyond it get 503")
	rate := fs.Float64("rate", 0, "per-client rate limit in requests/sec (0 = unlimited)")
	burst := fs.Int("burst", 0, "rate-limit burst size (0 = max(1, ceil(rate)))")
	workers := fs.Int("workers", runtime.NumCPU(), "inference worker pool size inside each completion job")
	jobTimeout := fs.Duration("job-timeout", 10*time.Minute, "per-job deadline (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs before canceling them")
	flightPath := fs.String("flight", "", "flight-recorder dump path (default transit-flight-<pid>.ndjson)")
	noTrace := fs.Bool("no-trace", false, "disable per-job tracing: no trace IDs, no /v1/jobs/{id}/trace")
	traceEvents := fs.Int("trace-events", 0, "per-job trace ring capacity in spans (0 = 256)")
	accessLogPath := fs.String("access-log", "", "write one NDJSON access line per finished job to this file ('-' = stderr)")
	accessLogMax := fs.Int64("access-log-max-bytes", 0, "access-log rotation threshold in bytes (0 = 64 MiB)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments (got %q)", fs.Args())
	}

	// Introspection server first, its exporters into the session, then
	// attach — same order as the pipeline path. Serving always arms the
	// flight recorder: a daemon's death should leave evidence. The session
	// comes before the disk cache so the store counts into the same
	// registry /metrics scrapes.
	srv := serve.New(*addr)
	if *flightPath == "" {
		*flightPath = obs.DefaultFlightPath()
	}
	sess, err := obs.NewSession(obs.Options{
		FlightPath: *flightPath,
		Extra:      srv.Exporters(),
	})
	if err != nil {
		return err
	}

	// The cache: memory-only by default, disk-backed when -cache-dir is
	// set — then answers survive restarts and are shared by every serve
	// process pointed at the same directory (sequentially; the store is
	// single-writer).
	cache := engine.NewCache()
	var store *diskcache.Store
	if *cacheDir != "" {
		store, err = diskcache.Open(*cacheDir, diskcache.Options{
			MaxBytes: *cacheMaxBytes,
			Metrics:  sess.Metrics,
		})
		if err != nil {
			return errors.Join(fmt.Errorf("open cache dir: %w", err), sess.Close())
		}
		cache = engine.NewCacheWithBackend(store)
	}
	closeStore := func() error {
		if store == nil {
			return nil
		}
		err := store.Close()
		store = nil
		return err
	}

	var accessLog *server.AccessLog
	switch *accessLogPath {
	case "":
	case "-":
		accessLog = server.NewAccessLogWriter(os.Stderr)
	default:
		accessLog, err = server.OpenAccessLog(*accessLogPath, *accessLogMax)
		if err != nil {
			return errors.Join(err, sess.Close(), closeStore())
		}
	}
	closeAccessLog := func() error { return accessLog.Close() }

	srv.Attach(sess)

	jobsrv := server.New(server.Config{
		Cache:       cache,
		MaxInflight: *maxInflight,
		QueueDepth:  *queueDepth,
		Rate:        *rate,
		Burst:       *burst,
		JobTimeout:  *jobTimeout,
		Workers:     *workers,
		Metrics:     sess.Metrics,
		BaseContext: sess.Context(context.Background()),
		NoTrace:     *noTrace,
		TraceEvents: *traceEvents,
		AccessLog:   accessLog,
	})
	// Flight dumps taken while serving carry the queue/worker/rate-limiter
	// picture next to the span tail.
	sess.Recorder.AddSnapshot("server", jobsrv.FlightSnapshot)
	// Readiness is composed: the job server must be admitting (not
	// draining, queue not saturated) and, when disk-backed, the cache
	// directory must still accept writes. Liveness (/healthz) needs
	// neither. The /runs page additionally shows each finished job's
	// provenance summary.
	readyStore := store
	srv.Ready = func() error {
		if err := jobsrv.Ready(); err != nil {
			return err
		}
		if readyStore != nil {
			return readyStore.Writable()
		}
		return nil
	}
	srv.Provenance = jobsrv.ProvenanceSnapshot
	jobsrv.Mount(srv)
	if err := srv.Start(); err != nil {
		return errors.Join(err, sess.Close(), closeStore(), closeAccessLog())
	}
	jobsrv.Start()

	cacheDesc := "in-memory"
	if *cacheDir != "" {
		cacheDesc = *cacheDir
	}
	fmt.Fprintf(os.Stderr, "transit: serving synthesis jobs on http://%s/v1/jobs (cache: %s, %d workers)\n",
		srv.Addr(), cacheDesc, *maxInflight)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	// Restore default signal handling so a second ^C kills a stuck drain.
	stop()

	fmt.Fprintf(os.Stderr, "transit: draining (in-flight jobs finish, new submissions get 503, limit %s)\n",
		*drainTimeout)
	// The HTTP server stays up through the drain so clients polling jobs
	// get their results and late submitters get an orderly 503.
	jobsrv.Drain(*drainTimeout)
	if path, derr := sess.DumpFlight("serve shutdown"); derr == nil && path != "" {
		fmt.Fprintf(os.Stderr, "transit: flight dump written to %s\n", path)
	}
	return errors.Join(srv.Close(), closeStore(), sess.Close(), closeAccessLog())
}
