package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config holds the daemon's tunables. The zero value is usable: every
// field has a default chosen for an interactive single-host deployment.
type Config struct {
	// Workers is the number of simulation worker goroutines (default
	// GOMAXPROCS). Each worker runs one cell at a time.
	Workers int

	// QueueDepth bounds the job queue (default 64). Submissions beyond
	// queue capacity are rejected with ErrQueueFull (HTTP 429) rather
	// than buffered without bound — backpressure, not latency. Jobs
	// re-enqueued by journal recovery do not count against the bound (a
	// recovering daemon must never reject its own past acceptances).
	QueueDepth int

	// CacheEntries bounds the result cache (default 1024 entries).
	CacheEntries int

	// SnapshotPath, when set without JournalPath (the cache-only mode),
	// persists the cache as a compacted log segment on Shutdown and every
	// SnapshotInterval and reloads it in New. Every record is verified on
	// load, its entry's digest included; bad records are quarantined one
	// by one, and a file that is not a segment at all is renamed aside
	// rather than failing boot. With JournalPath set, SnapshotPath is
	// neither read nor written: the journal holds the checkpoint.
	SnapshotPath string

	// SnapshotInterval, when positive and a durable file is configured,
	// checkpoints the daemon periodically (Persist), so a crash loses at
	// most one interval of cache entries. Zero: only on Shutdown.
	SnapshotInterval time.Duration

	// JournalPath, when set, enables the durable job journal: the record
	// log's append-only, fsync'd file and the daemon's only durable file,
	// a checkpoint segment (cache and live jobs) and the records logged
	// since. On startup it is replayed — the cache comes back, jobs that
	// never finished are re-enqueued — so a crash loses no accepted work.
	// Empty disables journaling entirely.
	JournalPath string

	// BreakerThreshold is the per-content-address circuit breaker: after
	// this many consecutive failures (simulation errors or worker
	// panics) of the same cell, resubmissions are rejected with
	// ErrKeyPoisoned (HTTP 422) instead of burning the pool — the
	// simulator is deterministic, so a failing cell fails every time.
	// 0 means the default (3); negative disables the breaker.
	BreakerThreshold int

	// JobTimeout caps each job's wall-clock run time (0 = unlimited). A
	// timed-out job ends in state "canceled" via the simulator's
	// cancellation hook.
	JobTimeout time.Duration

	// AdmissionTarget, when positive, enables adaptive admission control:
	// an AIMD concurrency limit on jobs in the system (queued + running),
	// grown while observed submit-to-done latency stays at or under this
	// target and backed off multiplicatively when it exceeds it.
	// Submissions past the limit are shed with ErrOverloaded (HTTP 429,
	// with a Retry-After hint); batch-priority jobs are shed first, at a
	// fraction of the limit. The limit stays within [Workers,
	// Workers+QueueDepth]. Zero (the default) disables the controller —
	// only the static QueueDepth backpressure applies.
	AdmissionTarget time.Duration

	// JobRetention bounds the completed-job table (default
	// CacheEntries). Oldest finished jobs are forgotten first; queued and
	// running jobs are never evicted. A finished job kept past the
	// cache's horizon would only pin result bytes the cache has already
	// dropped, while a forgotten ID costs the client one resubmission,
	// which is a free hit as long as the cell is still cached.
	JobRetention int

	// FS is the filesystem behind the durable file (default the
	// real one). The chaos harness injects write/sync/rename failures
	// through it to prove the daemon degrades instead of crashing.
	FS FS

	// BeforeRun, when set, is called by the worker immediately before
	// each cell executes, inside the worker's recover barrier. It exists
	// for the chaos harness (seeded panic injection) and tests; leave
	// nil in production.
	BeforeRun func(spec harness.CellSpec)

	// Tracer, when non-nil, retains request spans in a fixed-capacity
	// lock-free ring, queryable at GET /v1/traces. Requests join a trace
	// by sending X-ASF-Trace; the server then records one span per
	// pipeline stage (admission, queue, cache, singleflight, journal,
	// execute and its sub-phases, respond). Nil (the default) disables
	// tracing with zero overhead: every span call no-ops on the nil
	// receiver, and the simulation hot path stays allocation-free.
	Tracer *obs.Tracer

	// Logger, when non-nil, receives the daemon's structured lifecycle
	// events (degrade, breaker trips, job failures). Nil keeps the
	// server silent — cmd/asfd owns process-level logging.
	Logger *obs.Logger

	// Following, when true, boots the daemon as a warm standby: no
	// worker pool, submissions refused with ErrFollowing (HTTP 503),
	// state applied only through ApplyReplicatedSnapshot /
	// ApplyReplicatedBatch until Promote starts the workers and opens
	// the doors. The journal and snapshot paths still work — a follower
	// is crash-durable in its own right.
	Following bool

	// ReplicationLagMax, when positive, turns a follower's /healthz
	// status to "lagging" once it is more than this many records behind
	// the primary's replication log head.
	ReplicationLagMax int

	// HistoryInterval, when positive, samples the daemon's load gauges
	// (queue depth, running jobs, admission limit, cache size, heap,
	// goroutines) every interval into a ring of HistoryCapacity points
	// (default 900 — 15 minutes at 1s), served at
	// GET /v1/metrics/history. Zero disables the sampler.
	HistoryInterval time.Duration
	HistoryCapacity int

	// ScrubInterval, when positive, arms the integrity scrubber: an
	// idle-priority background loop that walks the result cache and
	// journal in deterministic seeded order, re-hashing every entry
	// against its stored content digest and quarantining + repairing
	// mismatches (see internal/audit). Arming the scrubber also turns on
	// the serve-path digest guard, so a corrupted entry caught between
	// passes is recomputed instead of served. Zero (the default)
	// disables all of it — byte-for-byte the pre-audit behavior.
	ScrubInterval time.Duration

	// AuditSampleRate is the fraction of scanned entries (0..1) that
	// each scrub pass fully re-executes through the simulator and
	// compares byte-for-byte — the expensive pass that catches
	// logic/state corruption the digest cannot. The sample rotates
	// deterministically across passes. 0 disables re-execution.
	AuditSampleRate float64

	// AuditSeed seeds the scrubber's walk order and re-execution
	// sampling (default 1). Pinning it makes a scrub pass exactly
	// reproducible, which the chaos soaks rely on.
	AuditSeed uint64

	// MaxBodyBytes caps every POST request body (default 8 MiB;
	// negative disables the cap). Oversized bodies are refused with 413
	// and the structured error envelope.
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.JobRetention <= 0 {
		c.JobRetention = c.CacheEntries
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.FS == nil {
		c.FS = OSFS{}
	}
	if c.HistoryCapacity <= 0 {
		c.HistoryCapacity = 900
	}
	if c.AuditSeed == 0 {
		c.AuditSeed = 1
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// JobState is a job's lifecycle position.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// ParseJobState validates a state filter string ("" means no filter).
func ParseJobState(s string) (JobState, error) {
	switch st := JobState(s); st {
	case "", JobQueued, JobRunning, JobDone, JobFailed, JobCanceled:
		return st, nil
	default:
		return "", fmt.Errorf("service: unknown job state %q", s)
	}
}

// Job is one queued experiment cell. All mutable fields are guarded by
// the server mutex; Done is closed exactly once when the job reaches a
// terminal state, after which Result/Err are immutable.
type Job struct {
	ID   string
	Key  string
	Spec harness.CellSpec

	// Priority is the admission class the job was accepted under;
	// Deadline, when nonzero, is the propagated client deadline — the
	// job is shed before start, or canceled mid-run, once it passes.
	Priority Priority
	Deadline time.Time

	State    JobState
	CacheHit bool
	Err      string
	ErrKind  string // "panic" for recovered worker panics, "error" otherwise
	Result   json.RawMessage

	// TraceID is the request trace this job belongs to (empty when the
	// submission carried no X-ASF-Trace header or tracing is off).
	// Serving metadata only — never part of the content address.
	TraceID string

	// submittedAt feeds the admission controller's submit-to-done
	// latency signal; enqueuedAt bounds the queue-wait span.
	submittedAt time.Time
	enqueuedAt  time.Time

	// Done is closed when the job reaches a terminal state.
	Done     chan struct{}
	doneOnce sync.Once

	// cancelRun, set while the job is running, aborts its simulation
	// through the sim-level cancellation hook.
	cancelRun func()
}

func (j *Job) closeDone() { j.doneOnce.Do(func() { close(j.Done) }) }

// Sentinel errors Submit maps to HTTP statuses.
var (
	// ErrQueueFull reports that the bounded job queue is at capacity
	// (HTTP 429): retry after in-flight jobs drain.
	ErrQueueFull = errors.New("service: job queue full")

	// ErrDraining reports that the daemon is shutting down and accepts
	// no new work (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")

	// ErrKeyPoisoned reports that this cell's content address has
	// tripped the failure circuit breaker (HTTP 422): the same spec has
	// failed repeatedly, and the simulator is deterministic, so running
	// it again would fail again.
	ErrKeyPoisoned = errors.New("service: content address tripped the failure circuit breaker")
)

// PanicError is the structured record of a worker panic: the recovered
// value plus the goroutine stack at the point of recovery. It fails
// only the panicking job — the worker and the daemon keep running.
type PanicError struct {
	Value string
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic during cell execution: %s", e.Value)
}

// RecoveryStats summarizes a startup replay of the durable file.
type RecoveryStats struct {
	Replayed    int // jobs the replayed records registered
	Reenqueued  int // re-enqueued (never reached a terminal record)
	FromCache   int // jobs whose done record settled them
	Terminal    int // failed/canceled jobs re-registered terminal
	Torn        int // torn journal tail records tolerated (crash mid-append)
	Quarantined int // mid-file corrupt journal records quarantined

	// SnapshotQuarantined counts cache-only snapshot records that failed
	// verification (frame CRC or entry digest) and were quarantined.
	SnapshotQuarantined int
}

// Health is the GET /healthz document. Beyond liveness flags it carries
// the load signals a load balancer (or the client's endpoint health
// checker) needs: queue depth, in-flight count, and the current
// adaptive admission limit (0 when admission control is off).
type Health struct {
	Status         string `json:"status"`
	Draining       bool   `json:"draining"`
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degradedReason,omitempty"`
	QueueDepth     int    `json:"queueDepth"`
	InFlight       int    `json:"inFlight"`
	AdmissionLimit int    `json:"admissionLimit"`

	// UptimeSeconds is whole seconds since the server was constructed.
	// Appended in PR 8; every pre-existing field above is unchanged.
	UptimeSeconds int64 `json:"uptimeSeconds"`

	// Role is "primary" or "follower"; ReplicaLagRecords is how many
	// primary records a follower has not yet applied (0 on a primary).
	// A follower more than Config.ReplicationLagMax records behind
	// reports status "lagging".
	Role              string `json:"role"`
	ReplicaLagRecords int64  `json:"replicaLagRecords"`

	// Integrity scrubber status: whether the background scrubber is
	// armed, how many passes have completed, and how many quarantined
	// entries still await repair (nonzero only on a follower waiting to
	// re-fetch clean bytes from its primary).
	ScrubEnabled       bool   `json:"scrubEnabled"`
	ScrubPasses        uint64 `json:"scrubPasses"`
	AuditRepairPending int    `json:"auditRepairPending"`
}

// Server is the simulation-as-a-service engine: a bounded worker pool
// over the deterministic harness, fronted by a content-addressed result
// cache, with an optional write-ahead job journal that makes accepted
// work crash-durable. It is transport-agnostic; Handler adapts it to
// HTTP.
type Server struct {
	cfg     Config
	cache   *Cache
	metrics *Metrics
	breaker *breaker
	adm     *admission // nil = admission control disabled

	// Observability plane: all four are optional and nil-safe — a
	// disabled tracer/logger/history is a nil pointer, and the stage
	// histograms are lock-free and always on.
	tracer  *obs.Tracer
	logger  *obs.Logger
	history *obs.History
	stages  stageHists
	start   time.Time

	queue chan *Job
	wg    sync.WaitGroup

	// historyStop ends the gauge sampler; historyDone is closed when it
	// has exited.
	historyStop chan struct{}
	historyOnce sync.Once
	historyDone chan struct{}

	// kill is closed when a shutdown deadline expires (or Kill crashes
	// the daemon in-process); it cancels every in-flight simulation
	// through the per-job cancel channel.
	kill     chan struct{}
	killOnce sync.Once

	// stopping is closed when the daemon starts draining (Shutdown or
	// Kill), releasing long-polling job waits.
	stopping chan struct{}

	// flushStop ends the periodic checkpoint flusher; flushDone is closed
	// when it has exited.
	flushStop chan struct{}
	flushOnce sync.Once
	flushDone chan struct{}
	// persistMu serializes Persist: the flusher and a follower's
	// bootstrap may checkpoint at once, and both write the same file.
	persistMu sync.Mutex

	// scrubStop ends the integrity scrub loop; scrubDone is closed when
	// it has exited. audit holds the scrubber's pass bookkeeping.
	scrubStop chan struct{}
	scrubOnce sync.Once
	scrubDone chan struct{}
	audit     auditState

	recovery RecoveryStats

	// log is the record log: the journal file (when configured and
	// healthy) and the replication window followers stream from. Always
	// present, so any daemon can be followed, including a promoted one.
	// A disk failure detaches its file and marks the daemon degraded.
	log *recordLog

	mu           sync.Mutex
	jobs         map[string]*Job
	runningByKey map[string]*Job // single-flight: content key -> executing job
	order        []string        // job IDs oldest-first, for retention eviction
	nextID       uint64
	running      int
	draining     bool
	killed       bool

	// Warm-standby state: following gates submissions and replication
	// applies; replPrimaryNext is the primary log head it last heard. A
	// follower's own log mirrors the primary's sequence, so its next
	// sequence number is the next record it expects.
	following       bool
	replPrimaryNext uint64
}

// New builds a server, replays its durable file if one is configured
// (re-enqueueing unfinished work), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		cache:        NewCache(cfg.CacheEntries),
		metrics:      NewMetrics(),
		breaker:      newBreaker(cfg.BreakerThreshold),
		adm:          newAdmission(cfg.AdmissionTarget, cfg.Workers, cfg.Workers+cfg.QueueDepth),
		tracer:       cfg.Tracer,
		logger:       cfg.Logger,
		start:        time.Now(),
		kill:         make(chan struct{}),
		stopping:     make(chan struct{}),
		flushStop:    make(chan struct{}),
		flushDone:    make(chan struct{}),
		scrubStop:    make(chan struct{}),
		scrubDone:    make(chan struct{}),
		historyStop:  make(chan struct{}),
		historyDone:  make(chan struct{}),
		jobs:         make(map[string]*Job),
		runningByKey: make(map[string]*Job),
		log:          newRecordLog(cfg.CacheEntries),
		following:    cfg.Following,
	}
	s.audit.repairPending = make(map[string]struct{})
	if cfg.HistoryInterval > 0 {
		s.history = obs.NewHistory(historyGauges, cfg.HistoryCapacity, nil)
	}

	pending, err := s.recover()
	if err != nil {
		return nil, err
	}
	// A follower starts no workers and builds no queue: recovered
	// unfinished jobs stay registered as pending, and Promote disposes
	// of them (cache-serve, shed, or re-enqueue) when the standby takes
	// over.
	if !cfg.Following {
		s.startWorkers(pending)
	}

	if cfg.SnapshotInterval > 0 && (cfg.SnapshotPath != "" || cfg.JournalPath != "") {
		go s.flushLoop(cfg.SnapshotInterval)
	} else {
		close(s.flushDone)
	}
	if s.history != nil {
		go s.historyLoop(cfg.HistoryInterval)
	} else {
		close(s.historyDone)
	}
	if cfg.ScrubInterval > 0 {
		go s.scrubLoop(cfg.ScrubInterval)
	} else {
		close(s.scrubDone)
	}
	return s, nil
}

// startWorkers builds the queue around the jobs to (re-)enqueue and
// starts the worker pool. The queue must hold every one of them up
// front (workers are not running yet); Submit enforces the configured
// bound itself.
func (s *Server) startWorkers(pending []*Job) {
	s.queue = make(chan *Job, max(s.cfg.QueueDepth, len(pending)))
	for _, job := range pending {
		job.enqueuedAt = time.Now()
		s.queue <- job
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Recovery returns the startup replay summary.
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// Metrics exposes the live counter set (used by tests and /metrics).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the result cache (used by tests and /metrics).
func (s *Server) Cache() *Cache { return s.cache }

// degrade switches the daemon to memory-only mode after a disk-write
// failure: the journal detaches and snapshotting stops, everything else
// (replication included) keeps serving, and /healthz reports degraded.
// First reason wins. It takes only the log's leaf mutex, so callers may
// hold s.mu.
func (s *Server) degrade(what string, err error) {
	if s.log.fail(what + ": " + err.Error()) {
		s.logger.Error("daemon degraded to memory-only mode", "cause", what, "err", err)
	}
}

// Degraded reports whether the daemon has fallen back to memory-only
// mode, and why.
func (s *Server) Degraded() (bool, string) {
	reason := s.log.failure()
	return reason != "", reason
}

// Health assembles the /healthz document.
func (s *Server) Health() Health {
	degraded, reason := s.Degraded()
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Status:            "ok",
		Draining:          s.draining,
		Degraded:          degraded,
		DegradedReason:    reason,
		QueueDepth:        len(s.queue),
		InFlight:          s.running,
		AdmissionLimit:    s.adm.Limit(),
		UptimeSeconds:     int64(time.Since(s.start) / time.Second),
		Role:              "primary",
		ReplicaLagRecords: s.replicationLagLocked(),

		ScrubEnabled:       s.cfg.ScrubInterval > 0,
		ScrubPasses:        s.metrics.AuditPasses(),
		AuditRepairPending: s.AuditRepairPending(),
	}
	if s.following {
		h.Role = "follower"
	}
	switch {
	case s.draining:
		h.Status = "draining"
	case degraded:
		h.Status = "degraded"
	case s.following && s.cfg.ReplicationLagMax > 0 && h.ReplicaLagRecords > int64(s.cfg.ReplicationLagMax):
		h.Status = "lagging"
	case s.following:
		h.Status = "following"
	}
	return h
}

// record appends one lifecycle record to the log. A journal write
// failure degrades the daemon (memory-only) instead of surfacing to the
// job; the record still reaches the replication window. When a live
// journal took the record, the append's wall time feeds the journal
// histogram and, when the job is traced, a "journal" span. Callers may
// hold s.mu: a submission's fsync rides inside its critical section so
// acceptance order and journal order agree.
func (s *Server) record(trace string, rec journalRecord) {
	start := time.Now()
	journaled, err := s.log.append(rec)
	if err != nil {
		s.degrade("journal append", err)
	}
	if !journaled {
		return
	}
	d := time.Since(start)
	s.stages.journal.Observe(d)
	s.span(trace, "journal", start, d, "op", string(rec.Op), "job", rec.ID)
}

// SubmitOpts carries per-submission serving metadata — admission class
// and propagated deadline. Neither enters the cell's content address:
// they say how urgently to run the cell, not what to simulate.
type SubmitOpts struct {
	// Priority is the admission class ("" = interactive).
	Priority Priority

	// Deadline, when nonzero, is the client's deadline for this job. A
	// deadline already past at submission is rejected with
	// ErrDeadlineExpired; one that passes while the job is queued sheds
	// it before simulation starts; one that passes mid-run cancels the
	// simulation through Config.Cancel's hook path.
	Deadline time.Time

	// Trace, when set and the server has a tracer, joins the job to a
	// request trace: every pipeline stage it passes through records a
	// span under this ID. Propagated via the X-ASF-Trace header.
	Trace string
}

// Submit validates and enqueues one cell with default serving options.
// Cache hits complete immediately without touching the queue. The
// returned job is live: wait on Done, then read the terminal state via
// Lookup or MatrixCell assembly under the server's accessors.
func (s *Server) Submit(spec harness.CellSpec) (*Job, error) {
	return s.SubmitJob(spec, SubmitOpts{})
}

// SubmitJob is Submit with explicit serving options (priority class and
// propagated deadline).
func (s *Server) SubmitJob(spec harness.CellSpec, opts SubmitOpts) (*Job, error) {
	admStart := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Priority == "" {
		opts.Priority = PriorityInteractive
	}
	key := Key(spec)

	if !s.breaker.allow(key) {
		s.metrics.incBreakerRejected()
		s.admitted(opts.Trace, admStart, "rejected-poisoned", "")
		return nil, fmt.Errorf("%w (key %s)", ErrKeyPoisoned, key)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.metrics.incRejected()
		s.admitted(opts.Trace, admStart, "rejected-draining", "")
		return nil, ErrDraining
	}
	if s.following {
		// A warm standby executes nothing and must not fork history from
		// its primary; the 503 sends the client's pool to a serving
		// endpoint.
		s.metrics.incRejected()
		s.admitted(opts.Trace, admStart, "rejected-following", "")
		return nil, ErrFollowing
	}
	job := &Job{
		ID:          fmt.Sprintf("job-%06d", s.nextID),
		Key:         key,
		Spec:        spec.Normalize(),
		Priority:    opts.Priority,
		Deadline:    opts.Deadline,
		TraceID:     opts.Trace,
		Done:        make(chan struct{}),
		submittedAt: time.Now(),
	}

	cacheStart := time.Now()
	e, hit := s.cache.Get(key)
	if hit && s.auditArmed() {
		// Serve-path integrity guard (armed scrubber only): re-hash the
		// bytes about to be served. An entry corrupted at rest since the
		// last scrub pass is quarantined and recomputed as a miss — a
		// client never observes corrupted bytes.
		ve, outcome := s.cache.VerifyEntry(key)
		if outcome == VerifyCorrupt {
			s.auditQuarantineServe(ve)
		}
		if outcome != VerifyOK {
			e, hit = nil, false
		}
	}
	cacheDur := time.Since(cacheStart)
	s.stages.cache.Observe(cacheDur)
	if hit {
		s.span(opts.Trace, "cache", cacheStart, cacheDur, "hit", "true", "key", key)
	} else {
		s.span(opts.Trace, "cache", cacheStart, cacheDur, "hit", "false", "key", key)
	}
	if hit {
		s.nextID++
		job.State = JobDone
		job.CacheHit = true
		job.Result = e.Result
		job.closeDone()
		s.registerLocked(job)
		s.metrics.incSubmitted()
		s.metrics.incCompleted()
		// A hit settles nothing new: the run that produced the entry
		// already journaled and replicated it. So the hit is neither
		// journaled nor replicated, and its job ID does not survive a
		// restart; a client that polls it there gets 404 and resubmits,
		// which is another free hit.
		s.admitted(opts.Trace, admStart, "cache-hit", job.ID)
		return job, nil
	}

	// A dead-on-arrival deadline is shed before any queue or admission
	// accounting: the only thing cheaper than running it late is not
	// running it at all. (Checked after the cache: a cached result is
	// free, so it is served even past the deadline.)
	if !job.Deadline.IsZero() && !time.Now().Before(job.Deadline) {
		s.metrics.incShedExpired()
		s.metrics.incRejected()
		s.admitted(opts.Trace, admStart, "rejected-expired", "")
		return nil, fmt.Errorf("%w (deadline %s)", ErrDeadlineExpired, job.Deadline.Format(time.RFC3339Nano))
	}

	// Adaptive admission: shed when the jobs in the system (queued +
	// running) are at the AIMD limit — batch earlier than interactive.
	// No-op unless Config.AdmissionTarget is set.
	if !s.adm.admit(job.Priority, len(s.queue)+s.running) {
		s.metrics.incShedOverload()
		s.metrics.incRejected()
		s.admitted(opts.Trace, admStart, "rejected-overload", "")
		return nil, fmt.Errorf("%w (limit %d, priority %s)", ErrOverloaded, s.adm.Limit(), job.Priority)
	}

	// Backpressure against the configured bound, not the channel
	// capacity: recovery may have sized the channel larger.
	if len(s.queue) >= s.cfg.QueueDepth {
		s.metrics.incRejected()
		s.admitted(opts.Trace, admStart, "rejected-queue-full", "")
		return nil, ErrQueueFull
	}
	s.nextID++
	job.State = JobQueued
	job.enqueuedAt = time.Now()
	// Write-ahead: the acceptance is durable before it is acknowledged
	// (and before a worker can race ahead to its outcome record).
	s.record(job.TraceID, submittedRecord(job))
	select {
	case s.queue <- job:
	default:
		// Only possible if recovery shrank headroom mid-race; treat as
		// overflow. The stray submitted record replays as a re-enqueue,
		// which is idempotent.
		s.metrics.incRejected()
		s.admitted(opts.Trace, admStart, "rejected-queue-full", "")
		return nil, ErrQueueFull
	}
	s.registerLocked(job)
	s.metrics.incSubmitted()
	s.admitted(opts.Trace, admStart, "queued", job.ID)
	return job, nil
}

// admitted closes out the admission stage: wall time into the
// histogram always, and an "admission" span when the request is traced.
func (s *Server) admitted(trace string, start time.Time, outcome, jobID string) {
	d := time.Since(start)
	s.stages.admission.Observe(d)
	if jobID != "" {
		s.span(trace, "admission", start, d, "outcome", outcome, "job", jobID)
	} else {
		s.span(trace, "admission", start, d, "outcome", outcome)
	}
}

// submittedRecord builds the write-ahead acceptance record for a queued
// job: content address, canonical cell, and the propagated deadline (so
// a recovered or promoted job that has already expired is shed, never
// executed).
func submittedRecord(job *Job) journalRecord {
	cell := encodeCell(job.Spec)
	rec := journalRecord{Op: opSubmitted, ID: job.ID, Key: job.Key, Cell: &cell}
	if !job.Deadline.IsZero() {
		rec.Deadline = job.Deadline.Format(time.RFC3339Nano)
	}
	return rec
}

// registerLocked records the job and enforces the retention bound.
// Caller holds s.mu.
func (s *Server) registerLocked(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	for len(s.order) > s.cfg.JobRetention {
		// The oldest job has almost always finished: drop it by
		// reslicing, which keeps a full table O(1) per registration.
		if j, ok := s.jobs[s.order[0]]; !ok || j.State.terminal() {
			delete(s.jobs, s.order[0])
			s.order = s.order[1:]
			continue
		}
		evicted := false
		for i, id := range s.order {
			if j, ok := s.jobs[id]; ok && j.State.terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			// Everything retained is still queued or running; a live job
			// is never forgotten, so tolerate exceeding the bound.
			break
		}
	}
}

// Lookup returns a point-in-time view of a job by ID.
func (s *Server) Lookup(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(job), true
}

// Jobs returns point-in-time views of every retained job, oldest first,
// optionally filtered by state (empty = all). Results are omitted from
// the views — a listing of a large sweep must stay cheap; poll the job
// itself for its record.
func (s *Server) Jobs(state JobState) []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		job, ok := s.jobs[id]
		if !ok || (state != "" && job.State != state) {
			continue
		}
		v := s.viewLocked(job)
		v.Result = nil
		out = append(out, v)
	}
	return out
}

// Cancel aborts a queued or running job: queued jobs go straight to
// "canceled"; running ones are interrupted through the sim-level
// cancellation hook and finish via the normal worker path. Returns
// false if the job is unknown or already terminal.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok || job.State.terminal() {
		s.mu.Unlock()
		return false
	}
	if job.State == JobQueued {
		rec := journalRecord{Op: opCanceled, ID: job.ID, Key: job.Key, Error: "canceled before start"}
		s.record(job.TraceID, rec)
		s.settleLocked(job, rec, false)
		s.mu.Unlock()
		return true
	}
	cancel := job.cancelRun
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// JobView is the wire form of a job's state.
type JobView struct {
	ID        string          `json:"id"`
	Key       string          `json:"key"`
	State     JobState        `json:"state"`
	Workload  string          `json:"workload"`
	Detection string          `json:"detection"`
	Scale     string          `json:"scale"`
	Seed      uint64          `json:"seed"`
	CacheHit  bool            `json:"cacheHit"`
	Error     string          `json:"error,omitempty"`
	ErrorKind string          `json:"errorKind,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

func (s *Server) viewLocked(job *Job) JobView {
	return JobView{
		ID:        job.ID,
		Key:       job.Key,
		State:     job.State,
		Workload:  job.Spec.Workload,
		Detection: job.Spec.Detection.String(),
		Scale:     job.Spec.Scale.String(),
		Seed:      job.Spec.Seed,
		CacheHit:  job.CacheHit,
		Error:     job.Err,
		ErrorKind: job.ErrKind,
		Result:    job.Result,
	}
}

// worker drains the queue until it is closed, running one cell at a
// time. Dequeued jobs re-check the cache first: an identical cell may
// have completed while this one waited, and serving the stored bytes
// keeps the duplicate byte-identical without re-simulating.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runGuarded executes the cell behind the panic barrier: a panic —
// whether from the simulator, a workload, or the injected chaos hook —
// fails only this job, as a structured PanicError, and the worker (and
// daemon) live on.
func (s *Server) runGuarded(job *Job, cancel <-chan struct{}, phases func(string, time.Duration)) (r *stats.Run, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.metrics.incPanics()
			err = &PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}
		}
	}()
	if hook := s.cfg.BeforeRun; hook != nil {
		hook(job.Spec)
	}
	return harness.RunCellTimed(job.Spec, cancel, phases)
}

func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	if job.State.terminal() {
		// Canceled while queued; nothing to run.
		s.mu.Unlock()
		return
	}
	// Queue stage closes at dequeue, whatever happens next (run, shed).
	if !job.enqueuedAt.IsZero() {
		qd := time.Since(job.enqueuedAt)
		s.stages.queue.Observe(qd)
		s.span(job.TraceID, "queue", job.enqueuedAt, qd, "job", job.ID)
	}
	// Deadline shed at dequeue: the client's deadline passed while the
	// job sat in the queue, so the simulation never starts.
	if !job.Deadline.IsZero() && !time.Now().Before(job.Deadline) {
		rec := journalRecord{Op: opCanceled, ID: job.ID, Key: job.Key, Error: "deadline expired before simulation start"}
		s.record(job.TraceID, rec)
		s.settleLocked(job, rec, false)
		s.mu.Unlock()
		s.metrics.incShedExpired()
		return
	}
	job.State = JobRunning
	s.running++

	// Per-job cancel channel, closed by whichever fires first: the job
	// timeout, the job's propagated deadline, an explicit Cancel, or a
	// forced shutdown (s.kill).
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	doCancel := func() { cancelOnce.Do(func() { close(cancel) }) }
	job.cancelRun = doCancel
	s.mu.Unlock()

	// peek, not Get: the user-facing hit/miss counters belong to the
	// Submit path; this internal re-check (a racing duplicate may have
	// completed while we sat in the queue) must not double-count.
	// Single-flight on the content key: if an identical cell is
	// executing right now, wait for it and serve its bytes instead of
	// re-simulating — so a client resubmission (lost response, failover)
	// can never burn a second execution's worth of simulated cycles.
	var sfStart time.Time // zero until the job actually waits behind a leader
claim:
	for {
		if e, ok := s.peekVerified(job.Key); ok {
			s.singleflightDone(job, sfStart)
			s.settle(job, doneRecord(job, e), true)
			return
		}
		s.mu.Lock()
		lead := s.runningByKey[job.Key]
		if lead == nil || lead == job {
			s.runningByKey[job.Key] = job
			s.mu.Unlock()
			break claim
		}
		s.mu.Unlock()
		if sfStart.IsZero() {
			sfStart = time.Now()
		}
		select {
		case <-lead.Done:
			// Leader finished: loop to re-peek. A successful leader put
			// the result in the cache; a failed one released the key, so
			// this job claims it and executes (its own failure then
			// feeds the breaker normally).
		case <-cancel:
			// Canceled while waiting: proceed without claiming the key;
			// execution aborts immediately on the closed channel and
			// finishes through the canceled path.
			break claim
		case <-s.kill:
			break claim
		}
	}
	s.singleflightDone(job, sfStart)

	var timer *time.Timer
	if s.cfg.JobTimeout > 0 {
		timer = time.AfterFunc(s.cfg.JobTimeout, doCancel)
	}
	var deadlineTimer *time.Timer
	if !job.Deadline.IsZero() {
		deadlineTimer = time.AfterFunc(time.Until(job.Deadline), doCancel)
	}
	watcherDone := make(chan struct{})
	go func() {
		select {
		case <-s.kill:
			doCancel()
		case <-watcherDone:
		}
	}()

	// Execute-phase sub-spans ("execute.workload.build",
	// "execute.machine.reset"/"execute.machine.build",
	// "execute.execute") ride the harness timing hook — only wired when
	// this job is traced, so the untraced path keeps the simulator's
	// allocation-free pooled fast path.
	var phases func(string, time.Duration)
	if s.tracer != nil && job.TraceID != "" {
		trace := job.TraceID
		phases = func(name string, d time.Duration) {
			end := time.Now()
			s.tracer.Record(trace, "execute."+name, end.Add(-d), end)
		}
	}

	start := time.Now()
	r, err := s.runGuarded(job, cancel, phases)
	wall := time.Since(start)
	s.stages.execute.Observe(wall)
	s.span(job.TraceID, "execute", start, wall, "job", job.ID, "workload", job.Spec.Workload)
	close(watcherDone)
	if timer != nil {
		timer.Stop()
	}
	if deadlineTimer != nil {
		deadlineTimer.Stop()
	}

	var pe *PanicError
	switch {
	case err == nil:
		rec := stats.NewRecord(r)
		data, mErr := json.Marshal(rec)
		if mErr != nil {
			s.failJob(job, "encoding result: "+mErr.Error(), "error")
			return
		}
		cell := encodeCell(job.Spec)
		entry := &CacheEntry{
			Key:       job.Key,
			Workload:  job.Spec.Workload,
			SimCycles: r.Cycles,
			Result:    data,
			Cell:      &cell,
		}
		s.cache.Put(entry)
		// Serve the bytes the cache actually retained: if a racing
		// duplicate stored first, its (bit-identical by the determinism
		// contract) bytes are the canonical copy for this key.
		if stored, ok := s.cache.peek(job.Key); ok {
			entry = stored
		}
		s.breaker.success(job.Key)
		s.metrics.noteRun(job.Spec.Workload, r.Cycles, wall.Milliseconds())
		s.settle(job, doneRecord(job, entry), false)
	case errors.Is(err, asfsim.ErrCanceled):
		s.settle(job, journalRecord{Op: opCanceled, ID: job.ID, Key: job.Key, Error: err.Error()}, false)
	case errors.As(err, &pe):
		s.failJob(job, pe.Error(), "panic")
	default:
		s.failJob(job, err.Error(), "error")
	}
}

// failJob finishes a job in state "failed", journals the outcome, and
// feeds the per-key circuit breaker.
func (s *Server) failJob(job *Job, msg, kind string) {
	if s.breaker.failure(job.Key) {
		s.metrics.incBreakerTripped()
		s.logger.Warn("failure breaker tripped", "key", job.Key, "job", job.ID)
	}
	s.logger.WithTrace(job.TraceID).Warn("job failed", "job", job.ID, "kind", kind, "err", msg)
	s.settle(job, journalRecord{Op: opFailed, ID: job.ID, Key: job.Key, Error: msg, Kind: kind}, false)
}

// singleflightDone closes out a dequeue-side wait behind an identical
// executing cell (no-op when the job never waited).
func (s *Server) singleflightDone(job *Job, sfStart time.Time) {
	if sfStart.IsZero() {
		return
	}
	d := time.Since(sfStart)
	s.stages.singleflight.Observe(d)
	s.span(job.TraceID, "singleflight", sfStart, d, "job", job.ID, "key", job.Key)
}

// doneRecord is the outcome record of a job settled with entry's bytes.
func doneRecord(job *Job, entry *CacheEntry) journalRecord {
	return journalRecord{Op: opDone, ID: job.ID, Key: job.Key, Entry: entry}
}

// settle is the one terminal transition of a live job: the outcome
// record is appended first (write-ahead: it is durable before any
// reader can see the outcome), then settleLocked applies and counts it.
// Worker paths call settle without s.mu, so a slow fsync never stalls
// submissions; callers that already hold s.mu record and then call
// settleLocked.
func (s *Server) settle(job *Job, rec journalRecord, hit bool) {
	s.record(job.TraceID, rec)
	s.mu.Lock()
	s.settleLocked(job, rec, hit)
	s.mu.Unlock()
}

// settleLocked applies a recorded outcome to a live job and counts it.
// Caller holds s.mu.
func (s *Server) settleLocked(job *Job, rec journalRecord, hit bool) {
	s.outcomeLocked(job, rec, hit)
	switch rec.Op {
	case opDone:
		s.metrics.incCompleted()
		if !job.submittedAt.IsZero() {
			s.adm.observe(time.Since(job.submittedAt))
		}
	case opFailed:
		s.metrics.incFailed()
	case opCanceled:
		s.metrics.incCanceled()
	}
}

// outcomeLocked moves job to the terminal state rec records and wakes
// its waiters: the part of a transition that live settling and record
// replay share. Caller holds s.mu.
func (s *Server) outcomeLocked(job *Job, rec journalRecord, hit bool) {
	if job.State == JobRunning {
		s.running--
	}
	switch rec.Op {
	case opDone:
		job.State, job.Result = JobDone, rec.Entry.Result
	case opFailed:
		job.State = JobFailed
	default:
		job.State = JobCanceled
	}
	job.CacheHit = hit
	job.Err, job.ErrKind = rec.Error, rec.Kind
	job.cancelRun = nil
	// Release the single-flight claim (if this job held it) so waiting
	// duplicates can re-peek the cache or take over execution.
	if s.runningByKey[job.Key] == job {
		delete(s.runningByKey, job.Key)
	}
	job.closeDone()
}

// QueueDepth returns the number of jobs waiting in the queue (0 on a
// never-promoted follower, which has no queue). Locked because Promote
// installs the queue after construction.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Running returns the number of jobs currently executing.
func (s *Server) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// AdmissionLimit returns the adaptive admission controller's current
// concurrency limit (0 when admission control is disabled).
func (s *Server) AdmissionLimit() int { return s.adm.Limit() }

// Shutdown drains the daemon gracefully: it stops accepting jobs,
// closes the queue, and waits for queued and running work to finish. If
// ctx expires first, every in-flight simulation is canceled through the
// sim-level cancellation hook and Shutdown waits for the (now prompt)
// worker exit. The checkpoint (Persist) is written last, so it holds
// every result the drain produced.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.stopping)
	// Safe to close under the lock: Submit only sends while holding it.
	// A never-promoted follower has no queue (and no workers to stop).
	if s.queue != nil {
		close(s.queue)
	}
	s.mu.Unlock()

	s.stopFlush()
	s.stopHistory()
	s.stopScrub()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.killOnce.Do(func() { close(s.kill) })
		<-done
	}

	err := s.Persist()
	s.log.detach()
	return err
}

// Kill crashes the daemon in-process: no drain, no final snapshot, no
// further journal records — exactly what power loss would leave behind.
// In-flight simulations are aborted; queued jobs die on the floor. The
// durable file on disk is the only survivor, which is the whole point:
// restart a Server against the same paths and recovery re-enqueues
// everything that never reached "done". Test and
// chaos-harness hook; production crashes don't ask first.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	close(s.stopping)
	s.killed = true
	s.log.detach() // sever the WAL first: a dead process writes nothing
	if s.queue != nil {
		close(s.queue)
	}
	s.mu.Unlock()

	s.killOnce.Do(func() { close(s.kill) })
	s.stopFlush()
	s.stopHistory()
	s.stopScrub()
	s.wg.Wait()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
