// Command asfd serves the simulator as a daemon: experiment-cell jobs
// over HTTP, a bounded worker pool, and a content-addressed result
// cache that makes repeat cells free (the simulator is deterministic,
// so the cache is exact, not approximate).
//
// Quickstart:
//
//	asfd -addr :8080 -cache-snapshot /tmp/asfd.snapshot &
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -H 'X-ASF-Trace: demo-0001' \
//	    -d '{"workload":"kmeans","detection":"subblock-4","scale":"small"}'
//	curl -s 'localhost:8080/v1/jobs/job-000000?wait=30000'
//	curl -s localhost:8080/v1/traces/demo-0001
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"matrix":{"workloads":["kmeans","genome"],"detections":["baseline","subblock-4"],"scale":"tiny"}}'
//	curl -s localhost:8080/metrics
//
// The POST answers at once with the accepted job views (already "done"
// with the result on a cache hit); GET /v1/jobs/{id}?wait=<ms> holds the
// poll until the job is terminal or the wait (capped at 30 s) expires.
//
// Observability: the daemon records per-request spans into a bounded
// in-memory ring (-trace-capacity; 0 disables), served via GET
// /v1/traces/{id} and GET /v1/traces?min_ms=N, samples gauge history
// for GET /v1/metrics/history (-history-interval/-history-capacity),
// and logs structured JSON lines (-log-level; -log-text for a human
// format). -debug-addr exposes net/http/pprof on a separate listener.
//
// SIGINT/SIGTERM drain gracefully: the HTTP listener stops, queued and
// running jobs finish (up to -drain-timeout, after which in-flight
// simulations are canceled), and a last checkpoint is written.
//
// Everything the daemon persists or replicates is one CRC-framed record
// log, and the daemon keeps one durable file of it. -cache-snapshot
// alone keeps the cache: a compacted segment of its results with their
// digests. -journal makes the daemon crash-safe instead: every accepted
// job is written to the fsync'd append-only journal before it is
// acknowledged, and every settled result follows it there; each
// checkpoint (on shutdown, and every -snapshot-interval) rewrites the
// journal as one segment holding the cache and the live jobs. On
// restart the file is replayed — settled cells are served from the
// cache, unfinished ones are re-enqueued. The two flags exclude each
// other. Every record is verified on load (frame CRC and result digest)
// and a bad one is quarantined alone. Disk-write failures degrade the
// daemon to memory-only operation (visible on /healthz) instead of
// crashing it. -replicate-from streams the same records to a warm
// standby.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers the profiling handlers on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 64, "job queue depth (backpressure bound)")
	cacheEntries := flag.Int("cache-entries", 1024, "result cache bound (entries)")
	snapshot := flag.String("cache-snapshot", "", "cache snapshot path for a daemon without -journal (persisted on shutdown, reloaded on start)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "periodic checkpoint of -cache-snapshot or -journal (0 = only on shutdown)")
	journal := flag.String("journal", "", "job journal path (crash-safe: accepted jobs are fsync'd and replayed on restart; holds the cache too)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures of one cell before resubmissions get 422 (0 = default 3, negative disables)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock cap (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "shutdown drain budget before in-flight jobs are canceled")
	admissionTarget := flag.Duration("admission-target", 0, "adaptive admission control: target submit-to-done latency; the concurrency limit shrinks when observed latency exceeds it (0 = disabled)")
	admissionMin := flag.Int("admission-min-limit", 0, "floor for the adaptive admission limit (0 = worker count); needs -admission-target")
	admissionMax := flag.Int("admission-max-limit", 0, "ceiling for the adaptive admission limit (0 = workers+queue); needs -admission-target")
	traceCapacity := flag.Int("trace-capacity", 4096, "span trace ring capacity (0 disables tracing and the /v1/traces endpoints)")
	historyInterval := flag.Duration("history-interval", time.Second, "gauge history sampling interval for /v1/metrics/history (0 disables)")
	historyCapacity := flag.Int("history-capacity", 900, "gauge history ring capacity (points retained)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logText := flag.Bool("log-text", false, "log human-readable text lines instead of JSON")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty disables)")
	replicateFrom := flag.String("replicate-from", "", "primary base URL to follow as a warm standby (boots without workers; promote via POST /v1/replication/promote)")
	replicationLagMax := flag.Int("replication-lag-max", 0, "/healthz reports \"lagging\" when the follower is more than this many records behind (0 disables)")
	promoteOnStart := flag.Bool("promote-on-start", false, "boot as a standby (replaying the local journal or snapshot) and immediately promote to serving primary")
	scrubInterval := flag.Duration("scrub-interval", 0, "background integrity scrub pass interval (0 disables the scrubber and the serve-path digest guard)")
	auditSampleRate := flag.Float64("audit-sample-rate", 0, "fraction of scanned entries fully re-executed per scrub pass, 0..1 (rotates deterministically across passes)")
	auditSeed := flag.Uint64("audit-seed", 0, "seed for the deterministic scrub walk order and re-execution sample (0 = default 1; pin for reproducible audits)")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "request body size cap in bytes; oversized submissions get 413 (0 = default 8 MiB, negative disables)")
	flag.Parse()

	if *snapshot != "" && *journal != "" {
		fmt.Fprintln(os.Stderr, "asfd: -cache-snapshot and -journal exclude each other: the journal holds the cache")
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asfd: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level, *logText, nil)
	tracer := obs.NewTracer(*traceCapacity, nil)

	// A daemon started with -replicate-from or -promote-on-start boots as
	// a warm standby: no worker pool, submissions refused until promoted.
	following := *replicateFrom != "" || *promoteOnStart

	srv, err := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		CacheEntries:      *cacheEntries,
		SnapshotPath:      *snapshot,
		SnapshotInterval:  *snapshotInterval,
		JournalPath:       *journal,
		BreakerThreshold:  *breakerThreshold,
		JobTimeout:        *jobTimeout,
		AdmissionTarget:   *admissionTarget,
		AdmissionMinLimit: *admissionMin,
		AdmissionMaxLimit: *admissionMax,
		Tracer:            tracer,
		Logger:            logger,
		HistoryInterval:   *historyInterval,
		HistoryCapacity:   *historyCapacity,
		Following:         following,
		ReplicationLagMax: *replicationLagMax,
		ScrubInterval:     *scrubInterval,
		AuditSampleRate:   *auditSampleRate,
		AuditSeed:         *auditSeed,
		MaxBodyBytes:      *maxBodyBytes,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "asfd: %v\n", err)
		os.Exit(1)
	}
	if rec := srv.Recovery(); rec.Replayed > 0 || rec.Torn > 0 || rec.Quarantined > 0 || rec.SnapshotQuarantined > 0 {
		logger.Info("journal replayed",
			"jobs", rec.Replayed, "reenqueued", rec.Reenqueued,
			"fromCache", rec.FromCache, "terminal", rec.Terminal, "torn", rec.Torn,
			"quarantined", rec.Quarantined, "snapshotQuarantined", rec.SnapshotQuarantined)
	}

	var follower *replica.Follower
	switch {
	case *promoteOnStart:
		// Take over from a dead primary using whatever the local journal
		// preserved: settled keys serve from the cache,
		// expired pending jobs are shed, the rest re-enqueue.
		st, perr := srv.Promote()
		if perr != nil {
			fmt.Fprintf(os.Stderr, "asfd: promote on start: %v\n", perr)
			os.Exit(1)
		}
		logger.Info("promoted on start",
			"fromCache", st.FromCache, "reenqueued", st.Reenqueued, "shed", st.Shed)
	case *replicateFrom != "":
		follower, err = replica.Start(replica.Config{
			PrimaryURL: *replicateFrom,
			Server:     srv,
			Logger:     logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "asfd: %v\n", err)
			os.Exit(1)
		}
		logger.Info("following primary", "primary", *replicateFrom)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	nworkers := *workers
	if nworkers <= 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening",
		"addr", *addr, "workers", nworkers, "queue", *queueDepth,
		"cacheEntries", *cacheEntries, "traceCapacity", tracer.Capacity(),
		"version", service.Version().GoVersion, "keySchema", service.KeySchemaVersion())
	if *admissionTarget > 0 {
		logger.Info("adaptive admission armed", "target", *admissionTarget, "limit", srv.AdmissionLimit())
	}
	if *scrubInterval > 0 {
		logger.Info("integrity scrubber armed",
			"interval", *scrubInterval,
			"sampleRate", *auditSampleRate, "seed", *auditSeed)
	}
	if *debugAddr != "" {
		// The pprof handlers stay off the service listener so profiling
		// can never be exposed by accident; DefaultServeMux carries them.
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("pprof debug listener up", "addr", *debugAddr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String())
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "asfd: serve: %v\n", err)
		os.Exit(1)
	}

	// Stop the listener first so no new jobs arrive, then drain the
	// service (which checkpoints last).
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if follower != nil {
		follower.Stop()
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	// A failed final persist is logged, not fatal: the drain itself
	// succeeded, and the journal (when enabled) still holds every record
	// since its last checkpoint.
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown persist", "err", err)
	}
	if degraded, reason := srv.Degraded(); degraded {
		logger.Warn("exited degraded (memory-only)", "reason", reason)
	}
	logger.Info("drained, bye")
}
