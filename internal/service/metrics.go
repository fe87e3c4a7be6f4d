package service

import (
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Metrics is the daemon's live counter set, rendered expvar-style as one
// JSON document at GET /metrics. All counters are monotone except the
// gauges (queueDepth, jobsRunning, cacheSize).
type Metrics struct {
	mu sync.Mutex

	jobsSubmitted uint64 // accepted into the system (including cache hits)
	jobsCompleted uint64 // finished successfully (computed or from cache)
	jobsFailed    uint64 // finished with a simulation/validation error
	jobsCanceled  uint64 // abandoned: per-job timeout or daemon shutdown
	jobsRejected  uint64 // refused with 429 (queue full) or 503 (draining)

	shedExpired  uint64 // jobs shed because their propagated deadline passed before simulation start
	shedOverload uint64 // submissions shed by the adaptive admission limit

	runsExecuted      uint64 // simulations actually run (cache misses)
	simCyclesExecuted uint64 // total simulated cycles across executed runs

	workerPanics    uint64 // cell executions that panicked (recovered; job failed)
	breakerTripped  uint64 // content addresses whose failure streak tripped the breaker
	breakerRejected uint64 // submissions refused with 422 (poisoned content address)

	journalRotations    uint64 // journal compactions (startup + each snapshot flush)
	recoveredReenqueued uint64 // journaled jobs re-enqueued on startup (never reached done)
	recoveredFromCache  uint64 // journaled done jobs served from the reloaded snapshot
	recoveredTerminal   uint64 // journaled failed/canceled jobs re-registered terminal
	journalTornRecords  uint64 // torn tail lines tolerated during replay (crash mid-append)
	snapshotWrites      uint64 // cache snapshots written (periodic flush + shutdown)
	snapshotQuarantines uint64 // corrupt snapshots renamed aside at startup

	journalQuarantinedRecords uint64 // mid-file corrupt journal records quarantined during replay
	snapshotEntryQuarantines  uint64 // snapshot records quarantined on load (frame CRC or entry digest)

	replFramesSent       uint64 // replication frames served to followers
	replFramesApplied    uint64 // replication frames verified and applied (follower side)
	replCorruptFrames    uint64 // frames/snapshots refused on CRC mismatch
	replDigestMismatches uint64 // replicated entries refused on content-digest mismatch
	replSnapshotsServed  uint64 // replication snapshot checkpoints served

	auditPasses         uint64 // completed scrub passes
	auditEntriesScanned uint64 // cache entries digest-checked by scrub passes
	auditReexecutions   uint64 // entries fully re-executed by the expensive sampled pass
	auditMismatches     uint64 // integrity mismatches found (scrub, journal sweep, or serve path)
	auditRepairs        uint64 // quarantined entries/records regenerated or re-synced clean
	scrubCorruptions    uint64 // corruptions attributed to at-rest/in-flight damage by the audit subsystem

	promotions         uint64 // follower-to-primary promotions
	promotedFromCache  uint64 // pending jobs settled from the replicated cache at promotion
	promotedReenqueued uint64 // pending jobs re-enqueued at promotion
	promotedShed       uint64 // pending jobs shed at promotion (deadline already passed)

	// latencyMs holds one wall-clock latency histogram per workload, in
	// milliseconds, for executed runs only (cache hits are ~0 and would
	// drown the signal the histogram exists for).
	latencyMs map[string]*stats.Histogram
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{latencyMs: make(map[string]*stats.Histogram)}
}

func (m *Metrics) incSubmitted() { m.mu.Lock(); m.jobsSubmitted++; m.mu.Unlock() }
func (m *Metrics) incCompleted() { m.mu.Lock(); m.jobsCompleted++; m.mu.Unlock() }
func (m *Metrics) incFailed()    { m.mu.Lock(); m.jobsFailed++; m.mu.Unlock() }
func (m *Metrics) incCanceled()  { m.mu.Lock(); m.jobsCanceled++; m.mu.Unlock() }
func (m *Metrics) incRejected()  { m.mu.Lock(); m.jobsRejected++; m.mu.Unlock() }

func (m *Metrics) incShedExpired()  { m.mu.Lock(); m.shedExpired++; m.mu.Unlock() }
func (m *Metrics) incShedOverload() { m.mu.Lock(); m.shedOverload++; m.mu.Unlock() }

func (m *Metrics) incPanics()          { m.mu.Lock(); m.workerPanics++; m.mu.Unlock() }
func (m *Metrics) incBreakerTripped()  { m.mu.Lock(); m.breakerTripped++; m.mu.Unlock() }
func (m *Metrics) incBreakerRejected() { m.mu.Lock(); m.breakerRejected++; m.mu.Unlock() }
func (m *Metrics) incRotations()       { m.mu.Lock(); m.journalRotations++; m.mu.Unlock() }
func (m *Metrics) incSnapshotWrites()  { m.mu.Lock(); m.snapshotWrites++; m.mu.Unlock() }
func (m *Metrics) incQuarantines()     { m.mu.Lock(); m.snapshotQuarantines++; m.mu.Unlock() }

func (m *Metrics) incReplCorrupt()         { m.mu.Lock(); m.replCorruptFrames++; m.mu.Unlock() }
func (m *Metrics) incReplDigestMismatch()  { m.mu.Lock(); m.replDigestMismatches++; m.mu.Unlock() }
func (m *Metrics) incReplSnapshotsServed() { m.mu.Lock(); m.replSnapshotsServed++; m.mu.Unlock() }

func (m *Metrics) addReplSent(n int)    { m.mu.Lock(); m.replFramesSent += uint64(n); m.mu.Unlock() }
func (m *Metrics) addReplApplied(n int) { m.mu.Lock(); m.replFramesApplied += uint64(n); m.mu.Unlock() }

func (m *Metrics) addSnapshotEntryQuarantines(n int) {
	m.mu.Lock()
	m.snapshotEntryQuarantines += uint64(n)
	m.mu.Unlock()
}

func (m *Metrics) incAuditReexec()   { m.mu.Lock(); m.auditReexecutions++; m.mu.Unlock() }
func (m *Metrics) incAuditMismatch() { m.mu.Lock(); m.auditMismatches++; m.mu.Unlock() }
func (m *Metrics) incAuditRepair()   { m.mu.Lock(); m.auditRepairs++; m.mu.Unlock() }
func (m *Metrics) incScrubCorruption() {
	m.mu.Lock()
	m.scrubCorruptions++
	m.mu.Unlock()
}

func (m *Metrics) addAuditMismatches(n int) {
	m.mu.Lock()
	m.auditMismatches += uint64(n)
	m.mu.Unlock()
}
func (m *Metrics) addAuditRepairs(n int) { m.mu.Lock(); m.auditRepairs += uint64(n); m.mu.Unlock() }
func (m *Metrics) addScrubCorruptions(n int) {
	m.mu.Lock()
	m.scrubCorruptions += uint64(n)
	m.mu.Unlock()
}

// noteAuditPass records one completed scrub pass and how many entries
// it digest-checked.
func (m *Metrics) noteAuditPass(scanned int) {
	m.mu.Lock()
	m.auditPasses++
	m.auditEntriesScanned += uint64(scanned)
	m.mu.Unlock()
}

// AuditPasses returns the number of completed scrub passes.
func (m *Metrics) AuditPasses() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.auditPasses
}

// AuditMismatches returns the count of integrity mismatches found by
// the audit subsystem (scrub passes, journal sweeps, and the serve-path
// guard combined).
func (m *Metrics) AuditMismatches() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.auditMismatches
}

// ScrubCorruptions returns the count of corruptions the audit subsystem
// attributed to at-rest or in-flight damage — the number the chaos soak
// balances against its injected fault count.
func (m *Metrics) ScrubCorruptions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scrubCorruptions
}

// AuditRepairs returns the count of quarantined entries or journal
// records regenerated (primary re-execution) or re-synced (follower).
func (m *Metrics) AuditRepairs() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.auditRepairs
}

// AuditReexecutions returns the count of entries fully re-executed by
// the expensive sampled pass.
func (m *Metrics) AuditReexecutions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.auditReexecutions
}

// auditCounters returns the audit counter block in one lock
// acquisition for /v1/audit.
func (m *Metrics) auditCounters() (passes, scanned, reexec, mismatches, corruptions, repairs uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.auditPasses, m.auditEntriesScanned, m.auditReexecutions,
		m.auditMismatches, m.scrubCorruptions, m.auditRepairs
}

// notePromotion records one follower-to-primary promotion.
func (m *Metrics) notePromotion(st PromoteStats) {
	m.mu.Lock()
	m.promotions++
	m.promotedFromCache += uint64(st.FromCache)
	m.promotedReenqueued += uint64(st.Reenqueued)
	m.promotedShed += uint64(st.Shed)
	m.mu.Unlock()
}

// ReplDigestMismatches returns the count of replicated entries refused
// on content-digest mismatch (the chaos soak proves corruption was
// detected, never served).
func (m *Metrics) ReplDigestMismatches() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replDigestMismatches
}

// ReplCorruptFrames returns the count of replication frames or
// snapshots refused on CRC mismatch.
func (m *Metrics) ReplCorruptFrames() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replCorruptFrames
}

// JournalQuarantinedRecords returns the count of mid-file corrupt
// journal records quarantined during replay.
func (m *Metrics) JournalQuarantinedRecords() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journalQuarantinedRecords
}

// noteRecovery records the outcome of a journal replay.
func (m *Metrics) noteRecovery(st RecoveryStats) {
	m.mu.Lock()
	m.recoveredReenqueued += uint64(st.Reenqueued)
	m.recoveredFromCache += uint64(st.FromCache)
	m.recoveredTerminal += uint64(st.Terminal)
	m.journalTornRecords += uint64(st.Torn)
	m.journalQuarantinedRecords += uint64(st.Quarantined)
	m.mu.Unlock()
}

// WorkerPanics returns the recovered-panic count (used by the chaos
// harness to prove injection actually happened).
func (m *Metrics) WorkerPanics() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.workerPanics
}

// noteRun records one executed (non-cached) simulation: its simulated
// cycle count and its wall-clock latency.
func (m *Metrics) noteRun(workload string, simCycles int64, wallMs int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runsExecuted++
	if simCycles > 0 {
		m.simCyclesExecuted += uint64(simCycles)
	}
	h, ok := m.latencyMs[workload]
	if !ok {
		h = stats.NewHistogram()
		m.latencyMs[workload] = h
	}
	h.Add(int(wallMs))
}

// SimCyclesExecuted returns the total simulated cycles across executed
// runs — the counter the cache-correctness test watches to prove a
// repeat submission re-simulated nothing.
func (m *Metrics) SimCyclesExecuted() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.simCyclesExecuted
}

// MetricsSnapshot is the GET /metrics document (schema documented in
// EXPERIMENTS.md "Serving").
type MetricsSnapshot struct {
	JobsSubmitted uint64 `json:"jobsSubmitted"`
	JobsCompleted uint64 `json:"jobsCompleted"`
	JobsFailed    uint64 `json:"jobsFailed"`
	JobsCanceled  uint64 `json:"jobsCanceled"`
	JobsRejected  uint64 `json:"jobsRejected"`
	QueueDepth    int    `json:"queueDepth"`
	JobsRunning   int    `json:"jobsRunning"`

	// ShedExpired counts jobs shed because their propagated deadline
	// passed before simulation start (at submit or at dequeue);
	// ShedOverload counts submissions refused by the adaptive admission
	// controller; AdmissionLimit is its current concurrency limit (a
	// gauge; 0 = admission control disabled).
	ShedExpired    uint64 `json:"shedExpired"`
	ShedOverload   uint64 `json:"shedOverload"`
	AdmissionLimit int    `json:"admissionLimit"`

	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	CacheEvictions uint64 `json:"cacheEvictions"`
	CacheSize      int    `json:"cacheSize"`

	RunsExecuted      uint64 `json:"runsExecuted"`
	SimCyclesExecuted uint64 `json:"simCyclesExecuted"`

	WorkerPanics    uint64 `json:"workerPanics"`
	BreakerTripped  uint64 `json:"breakerTripped"`
	BreakerRejected uint64 `json:"breakerRejected"`

	JournalRecords      uint64 `json:"journalRecords"`
	JournalRotations    uint64 `json:"journalRotations"`
	JournalTornRecords  uint64 `json:"journalTornRecords"`
	RecoveredReenqueued uint64 `json:"recoveredReenqueued"`
	RecoveredFromCache  uint64 `json:"recoveredFromCache"`
	RecoveredTerminal   uint64 `json:"recoveredTerminal"`
	SnapshotWrites      uint64 `json:"snapshotWrites"`
	SnapshotQuarantines uint64 `json:"snapshotQuarantines"`

	// Integrity quarantines: individual journal and snapshot records
	// that failed verification on replay (frame CRC or entry digest), not
	// the whole-file quarantines snapshotQuarantines counts.
	JournalQuarantinedRecords uint64 `json:"journalQuarantinedRecords"`
	SnapshotEntryQuarantines  uint64 `json:"snapshotEntryQuarantines"`

	// Replication plane. Role is "primary" or "follower";
	// ReplicaLagRecords is the follower's unapplied-record gauge (0 on
	// a primary). The corrupt/mismatch counters prove verification is
	// live: a frame refused on CRC or content-digest grounds is counted
	// here and never applied.
	Role                 string `json:"role"`
	ReplicaLagRecords    int64  `json:"replicaLagRecords"`
	ReplFramesSent       uint64 `json:"replFramesSent"`
	ReplFramesApplied    uint64 `json:"replFramesApplied"`
	ReplCorruptFrames    uint64 `json:"replCorruptFrames"`
	ReplDigestMismatches uint64 `json:"replDigestMismatches"`
	ReplSnapshotsServed  uint64 `json:"replSnapshotsServed"`

	// Integrity audit: the background scrubber's lifetime totals.
	// AuditMismatches counts every integrity mismatch the subsystem
	// found (scrub pass, journal sweep, serve-path guard);
	// ScrubCorruptions counts those attributed to at-rest/in-flight
	// damage — the figure chaos soaks balance against injected faults.
	// All zero while the scrubber is disarmed (-scrub-interval=0).
	AuditPasses         uint64 `json:"auditPasses"`
	AuditEntriesScanned uint64 `json:"auditEntriesScanned"`
	AuditReexecutions   uint64 `json:"auditReexecutions"`
	AuditMismatches     uint64 `json:"auditMismatches"`
	AuditRepairs        uint64 `json:"auditRepairs"`
	ScrubCorruptions    uint64 `json:"scrubCorruptions"`

	// Promotion: how replicated pending work was disposed of when this
	// daemon took over from a dead primary.
	Promotions         uint64 `json:"promotions"`
	PromotedFromCache  uint64 `json:"promotedFromCache"`
	PromotedReenqueued uint64 `json:"promotedReenqueued"`
	PromotedShed       uint64 `json:"promotedShed"`

	// Degraded mirrors /healthz: true once a journal or snapshot write
	// has failed and the daemon fell back to memory-only operation.
	Degraded bool `json:"degraded"`

	// LatencyMsByWorkload summarizes executed-run wall latency per
	// workload (n, mean, max, p50, p95 — milliseconds).
	LatencyMsByWorkload map[string]stats.HistSummary `json:"latencyMsByWorkload"`

	// StageLatencyMs summarizes wall latency per server pipeline stage
	// (admission, queue, cache, singleflight, journal, execute, respond,
	// snapshot) — the histogram view of the same stage vocabulary the
	// tracer records as spans. The key set is fixed; untouched stages
	// report count 0.
	StageLatencyMs map[string]obs.HistSummary `json:"stageLatencyMs"`

	// TraceSpans / TraceSpansDropped count spans recorded into the trace
	// ring and spans overwritten by ring wraparound (both 0 when tracing
	// is off); HistoryPoints is the number of gauge samples currently
	// retained for /v1/metrics/history.
	TraceSpans        uint64 `json:"traceSpans"`
	TraceSpansDropped uint64 `json:"traceSpansDropped"`
	HistoryPoints     int    `json:"historyPoints"`
}

// snapshot assembles the document; queue/cache/journal gauges are
// passed in by the server, which owns those structures.
func (m *Metrics) snapshot(queueDepth, running, admissionLimit int, cache *Cache, journalRecords uint64, degraded bool,
	stages map[string]obs.HistSummary, traceSpans, traceDropped uint64, historyPoints int,
	role string, replicaLag int64) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := MetricsSnapshot{
		JobsSubmitted:       m.jobsSubmitted,
		JobsCompleted:       m.jobsCompleted,
		JobsFailed:          m.jobsFailed,
		JobsCanceled:        m.jobsCanceled,
		JobsRejected:        m.jobsRejected,
		QueueDepth:          queueDepth,
		JobsRunning:         running,
		ShedExpired:         m.shedExpired,
		ShedOverload:        m.shedOverload,
		AdmissionLimit:      admissionLimit,
		RunsExecuted:        m.runsExecuted,
		SimCyclesExecuted:   m.simCyclesExecuted,
		WorkerPanics:        m.workerPanics,
		BreakerTripped:      m.breakerTripped,
		BreakerRejected:     m.breakerRejected,
		JournalRecords:      journalRecords,
		JournalRotations:    m.journalRotations,
		JournalTornRecords:  m.journalTornRecords,
		RecoveredReenqueued: m.recoveredReenqueued,
		RecoveredFromCache:  m.recoveredFromCache,
		RecoveredTerminal:   m.recoveredTerminal,
		SnapshotWrites:      m.snapshotWrites,
		SnapshotQuarantines: m.snapshotQuarantines,

		JournalQuarantinedRecords: m.journalQuarantinedRecords,
		SnapshotEntryQuarantines:  m.snapshotEntryQuarantines,

		Role:                 role,
		ReplicaLagRecords:    replicaLag,
		ReplFramesSent:       m.replFramesSent,
		ReplFramesApplied:    m.replFramesApplied,
		ReplCorruptFrames:    m.replCorruptFrames,
		ReplDigestMismatches: m.replDigestMismatches,
		ReplSnapshotsServed:  m.replSnapshotsServed,

		AuditPasses:         m.auditPasses,
		AuditEntriesScanned: m.auditEntriesScanned,
		AuditReexecutions:   m.auditReexecutions,
		AuditMismatches:     m.auditMismatches,
		AuditRepairs:        m.auditRepairs,
		ScrubCorruptions:    m.scrubCorruptions,

		Promotions:         m.promotions,
		PromotedFromCache:  m.promotedFromCache,
		PromotedReenqueued: m.promotedReenqueued,
		PromotedShed:       m.promotedShed,

		Degraded:            degraded,
		LatencyMsByWorkload: make(map[string]stats.HistSummary, len(m.latencyMs)),
		StageLatencyMs:      stages,
		TraceSpans:          traceSpans,
		TraceSpansDropped:   traceDropped,
		HistoryPoints:       historyPoints,
	}
	// Deterministic assembly order (map ranges are random); the JSON
	// encoder sorts map keys anyway, but keeping the iteration sorted
	// makes the code's output independent of it.
	names := make([]string, 0, len(m.latencyMs))
	for n := range m.latencyMs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.LatencyMsByWorkload[n] = m.latencyMs[n].Summary()
	}
	s.CacheHits, s.CacheMisses, s.CacheEvictions = cache.Counters()
	s.CacheSize = cache.Len()
	return s
}
