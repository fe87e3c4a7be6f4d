package service

// Integrity audit: the background scrubber, the serve-path digest
// guard, quarantine, and self-healing repair.
//
// The determinism contract — every result is a pure function of its
// canonical cell — makes integrity cheap to prove and corruption cheap
// to undo. The scrubber walks the cache in deterministic seeded order
// (internal/audit): a cheap pass re-hashes each entry against its
// stored SHA-256 digest and re-verifies the journal file and the
// replication window line by line (catches at-rest bitrot), and an
// expensive pass re-executes a rotating sampled fraction of entries
// through the simulator and compares bytes (catches logic/state
// corruption a digest cannot). A mismatch quarantines the entry (one JSON line in
// <path>.audit-quarantine plus removal from the cache) and triggers
// repair: a primary re-executes the cell locally — the recomputation
// is byte-identical by contract — while a follower, which executes
// nothing, marks the key repair-pending and lets the replica sync loop
// re-fetch a digest-verified snapshot from its primary.
//
// While the scrubber is armed (ScrubInterval > 0), every cache read on
// the serving path re-hashes the bytes about to be served, so a client
// can never observe corruption that happened between passes: the entry
// is quarantined and the cell recomputed as a cache miss instead. With
// the default ScrubInterval of 0 none of this code runs and the serving
// path is byte-for-byte its pre-audit self.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/harness"
	"repro/internal/stats"
)

// auditRecentCap bounds the quarantined-key list /v1/audit reports.
const auditRecentCap = 32

// auditState is the scrubber's pass bookkeeping. Its mutex is a leaf:
// nothing is called while holding it, so it can be taken from code
// paths that hold s.mu (the serve-path guard) without ordering risk.
type auditState struct {
	mu            sync.Mutex
	passSeq       uint64
	lastPass      time.Time
	lastDur       time.Duration
	lastReport    AuditPassReport
	repairPending map[string]struct{} // follower keys awaiting re-sync repair
	recent        []string            // most recently quarantined keys, oldest first
}

// auditArmed reports whether the integrity subsystem is on. cfg is
// immutable after New, so this needs no lock.
func (s *Server) auditArmed() bool { return s.cfg.ScrubInterval > 0 }

// AuditPassReport summarizes one scrub pass.
type AuditPassReport struct {
	Pass              uint64 `json:"pass"`
	Scanned           int    `json:"scanned"`
	Reexecuted        int    `json:"reexecuted"`
	Mismatches        int    `json:"mismatches"`
	Corruptions       int    `json:"corruptions"`
	Repairs           int    `json:"repairs"`
	JournalBadRecords int    `json:"journalBadRecords"`
	ReplFramesBad     int    `json:"replFramesBad"`
	DurationMs        int64  `json:"durationMs"`
}

// scrubLoop runs one scrub pass every interval until stopped — the same
// lifecycle shape as flushLoop/historyLoop.
func (s *Server) scrubLoop(interval time.Duration) {
	defer close(s.scrubDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.ScrubPass()
		case <-s.scrubStop:
			return
		}
	}
}

func (s *Server) stopScrub() {
	s.scrubOnce.Do(func() { close(s.scrubStop) })
	<-s.scrubDone
}

// scrubHalted reports whether the scrubber should abandon the current
// pass (shutdown, kill, or drain in progress).
func (s *Server) scrubHalted() bool {
	select {
	case <-s.scrubStop:
		return true
	case <-s.kill:
		return true
	default:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.killed
}

// scrubSleep pauses for d; false means the scrubber was stopped.
func (s *Server) scrubSleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.scrubStop:
		return false
	case <-s.kill:
		return false
	}
}

// scrubYield paces the walk by deferring to real work: while the pool
// has queued or running jobs the scrubber backs off, but only up to a
// bound, so sustained load cannot starve integrity checking forever.
func (s *Server) scrubYield() {
	for waited := time.Duration(0); waited < 50*time.Millisecond; waited += 5 * time.Millisecond {
		s.mu.Lock()
		busy := len(s.queue) > 0 || s.running > 0
		s.mu.Unlock()
		if !busy || !s.scrubSleep(5*time.Millisecond) {
			return
		}
	}
}

// ScrubPass runs one full scrub pass synchronously and returns its
// report. The background loop calls it on each tick; tests and the
// chaos soaks call it directly so a pass is deterministic in time as
// well as in order.
func (s *Server) ScrubPass() AuditPassReport {
	start := time.Now()
	s.audit.mu.Lock()
	s.audit.passSeq++
	pass := s.audit.passSeq
	s.audit.mu.Unlock()

	rep := AuditPassReport{Pass: pass}
	seed := s.cfg.AuditSeed
	following := s.Following()

	for _, key := range audit.Order(seed, pass, s.cache.Keys()) {
		if s.scrubHalted() {
			break
		}
		s.scrubYield()
		vStart := time.Now()
		e, outcome := s.cache.VerifyEntry(key)
		switch outcome {
		case VerifyMissing:
			// Evicted (or already quarantined) since the walk order was
			// captured: not corruption, nothing to report.
			continue
		case VerifyCorrupt:
			rep.Scanned++
			rep.Mismatches++
			rep.Corruptions++
			s.metrics.incAuditMismatch()
			s.metrics.incScrubCorruption()
			s.span(serverTrace, "audit.verify", vStart, time.Since(vStart),
				"key", key, "outcome", "digest-mismatch", "source", "cache")
			s.auditQuarantine(audit.QuarantineRecord{
				Key: e.Key, Workload: e.Workload, Reason: "digest-mismatch",
				Want: e.Digest, Got: ResultDigest(e.Result), Pass: pass, Source: "cache",
			})
			if s.auditRepair(e, following) {
				rep.Repairs++
			}
		case VerifyOK:
			rep.Scanned++
			if following || e.Cell == nil || !audit.Sampled(seed, pass, key, s.cfg.AuditSampleRate) {
				continue
			}
			// Expensive pass: full re-execution. The stored bytes hash
			// clean, so any disagreement here is logic/state corruption —
			// the digest was computed over already-wrong bytes.
			rep.Reexecuted++
			s.metrics.incAuditReexec()
			rxStart := time.Now()
			fresh, cycles, err := s.auditExecute(e.Cell)
			if err != nil {
				// An execution failure is not corruption evidence (the
				// breaker owns failing cells); log and move on.
				s.logger.Warn("audit re-execution failed", "key", key, "err", err)
				continue
			}
			if bytes.Equal(fresh, e.Result) {
				continue
			}
			rep.Mismatches++
			rep.Corruptions++
			s.metrics.incAuditMismatch()
			s.metrics.incScrubCorruption()
			s.span(serverTrace, "audit.verify", rxStart, time.Since(rxStart),
				"key", key, "outcome", "reexec-mismatch", "source", "cache")
			s.cache.Remove(key)
			s.auditQuarantine(audit.QuarantineRecord{
				Key: e.Key, Workload: e.Workload, Reason: "reexec-mismatch",
				Want: e.Digest, Got: ResultDigest(fresh), Pass: pass, Source: "cache",
			})
			// The fresh bytes are the repair: determinism says the
			// recomputation is the truth.
			s.cache.Put(&CacheEntry{Key: e.Key, Workload: e.Workload, SimCycles: cycles, Result: fresh, Cell: e.Cell})
			s.metrics.incAuditRepair()
			rep.Repairs++
			s.span(serverTrace, "audit.repair", rxStart, time.Since(rxStart), "key", key, "mode", "reexec")
		}
	}

	s.scrubJournal(pass, &rep)
	// The replication window sweep is detect-only (in-memory lines
	// cannot be rewritten in place) and reported per pass, not
	// accumulated: the same bad line would otherwise be re-counted every
	// pass.
	rep.ReplFramesBad = s.log.verifyAll()

	dur := time.Since(start)
	rep.DurationMs = dur.Milliseconds()
	s.metrics.noteAuditPass(rep.Scanned)
	s.audit.mu.Lock()
	s.audit.lastPass = time.Now()
	s.audit.lastDur = dur
	s.audit.lastReport = rep
	s.audit.mu.Unlock()
	s.span(serverTrace, "audit.pass", start, dur,
		"pass", strconv.FormatUint(pass, 10),
		"scanned", strconv.Itoa(rep.Scanned),
		"reexecuted", strconv.Itoa(rep.Reexecuted),
		"corruptions", strconv.Itoa(rep.Corruptions))
	if rep.Corruptions > 0 {
		s.logger.Warn("scrub pass found corruption",
			"pass", pass, "corruptions", rep.Corruptions, "repairs", rep.Repairs)
	}
	return rep
}

// scrubJournal sweeps the on-disk journal with boot's scanner for frames
// that no longer verify: at-rest corruption replay would only meet at the
// next boot. An entry failing its digest is the cache walk's (boot loaded
// it), and a bad final line is a crash or racing append mid-write. Repair
// is a Persist: the journal is rewritten from memory, minus the bad lines.
func (s *Server) scrubJournal(pass uint64, rep *AuditPassReport) {
	if !s.log.journaling() {
		return // off, degraded or closed: no journal to scrub or repair
	}
	bad := 0
	scanRecords(s.cfg.FS, s.cfg.JournalPath, true, func(journalRecord) error { return nil }, func([]byte) error {
		bad++
		s.auditQuarantine(audit.QuarantineRecord{Reason: "journal-crc", Pass: pass, Source: "journal"})
		return nil
	})
	if bad == 0 {
		return
	}
	rep.JournalBadRecords += bad
	rep.Mismatches += bad
	rep.Corruptions += bad
	s.metrics.addAuditMismatches(bad)
	s.metrics.addScrubCorruptions(bad)
	s.logger.Warn("journal records failed CRC at rest", "bad", bad, "path", s.cfg.JournalPath)
	jStart := time.Now()
	if err := s.Persist(); err == nil {
		rep.Repairs += bad
		s.metrics.addAuditRepairs(bad)
		s.span(serverTrace, "audit.repair", jStart, time.Since(jStart),
			"source", "journal", "records", strconv.Itoa(bad))
	}
}

// auditExecute re-runs a cell through the same harness path the worker
// pool uses and returns the canonical result bytes. Guarded like
// runGuarded: a panic fails the audit of this entry, not the daemon.
// Cycles simulated here are audit overhead, never production serving,
// so they feed auditReexecutions — not runsExecuted/simCyclesExecuted,
// whose ledger the soak tests balance against client-visible work.
func (s *Server) auditExecute(cell *canonicalCell) (data []byte, cycles int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic during audit re-execution: %v", p)
		}
	}()
	spec, err := cell.spec()
	if err != nil {
		return nil, 0, err
	}
	r, err := harness.RunCell(spec.Normalize(), s.kill)
	if err != nil {
		return nil, 0, err
	}
	rec := stats.NewRecord(r)
	data, err = json.Marshal(rec)
	if err != nil {
		return nil, 0, err
	}
	return data, r.Cycles, nil
}

// auditRepair regenerates a quarantined entry. A primary re-executes
// the cell locally — the recomputation is byte-identical to the lost
// bytes by the determinism contract. A follower executes nothing: it
// marks the key repair-pending, and the replica sync loop re-fetches a
// digest-verified snapshot from the primary (auditSettleRepairs counts
// the repair when the clean entry lands). Reports whether the repair
// completed here and now.
func (s *Server) auditRepair(e CacheEntry, following bool) bool {
	start := time.Now()
	if following {
		s.audit.mu.Lock()
		s.audit.repairPending[e.Key] = struct{}{}
		s.audit.mu.Unlock()
		s.span(serverTrace, "audit.repair", start, time.Since(start),
			"key", e.Key, "mode", "resync-requested")
		return false
	}
	if e.Cell == nil {
		// Pre-audit snapshot entry: no spec to re-execute. The entry is
		// quarantined and the next submission recomputes it.
		s.logger.Warn("quarantined entry carries no spec; dropped without repair", "key", e.Key)
		return false
	}
	fresh, cycles, err := s.auditExecute(e.Cell)
	if err != nil {
		s.logger.Warn("audit repair re-execution failed", "key", e.Key, "err", err)
		return false
	}
	if e.Digest != "" && ResultDigest(fresh) != e.Digest {
		// The recomputation does not reproduce the recorded digest: the
		// digest itself was corrupted, or the entry was wrong from the
		// start. Either way the fresh bytes are the truth; store them
		// under their own digest and say so.
		s.logger.Warn("audit repair recomputed different bytes than recorded",
			"key", e.Key, "recordedDigest", e.Digest)
	}
	s.cache.Put(&CacheEntry{Key: e.Key, Workload: e.Workload, SimCycles: cycles, Result: fresh, Cell: e.Cell})
	s.metrics.incAuditRepair()
	s.span(serverTrace, "audit.repair", start, time.Since(start), "key", e.Key, "mode", "reexec")
	return true
}

// auditQuarantinePath is where quarantine records land: next to the
// journal when there is one, else next to the snapshot, else nowhere
// (a diskless daemon still quarantines in-memory state, just without
// the paper trail).
func (s *Server) auditQuarantinePath() string {
	if s.cfg.JournalPath != "" {
		return s.cfg.JournalPath + ".audit-quarantine"
	}
	if s.cfg.SnapshotPath != "" {
		return s.cfg.SnapshotPath + ".audit-quarantine"
	}
	return ""
}

// auditQuarantine appends one record to the audit quarantine file and
// remembers the key for /v1/audit. It takes only the audit leaf mutex —
// callers may hold s.mu (the serve-path guard does).
func (s *Server) auditQuarantine(rec audit.QuarantineRecord) {
	s.audit.mu.Lock()
	if rec.Key != "" {
		s.audit.recent = append(s.audit.recent, rec.Key)
		if n := len(s.audit.recent) - auditRecentCap; n > 0 {
			s.audit.recent = append(s.audit.recent[:0], s.audit.recent[n:]...)
		}
	}
	if path := s.auditQuarantinePath(); path != "" {
		if f, err := s.cfg.FS.Append(path); err == nil {
			f.Write(rec.Line())
			f.Close()
		}
	}
	s.audit.mu.Unlock()
	s.logger.Warn("audit quarantined entry",
		"key", rec.Key, "reason", rec.Reason, "source", rec.Source)
}

// auditQuarantineServe handles a corrupt entry caught by the serve-path
// guard between scrub passes: count, quarantine, and let the caller
// recompute through the normal miss path — the recomputation is the
// repair, and the client never sees the corrupted bytes.
func (s *Server) auditQuarantineServe(e CacheEntry) {
	start := time.Now()
	s.metrics.incAuditMismatch()
	s.metrics.incScrubCorruption()
	s.span(serverTrace, "audit.verify", start, time.Since(start),
		"key", e.Key, "outcome", "digest-mismatch", "source", "serve")
	s.auditQuarantine(audit.QuarantineRecord{
		Key: e.Key, Workload: e.Workload, Reason: "digest-mismatch",
		Want: e.Digest, Got: ResultDigest(e.Result), Source: "serve",
	})
}

// peekVerified is the worker/promotion-side cache peek, with the same
// integrity guard as the Submit path when the scrubber is armed. With
// the scrubber off it is exactly cache.peek.
func (s *Server) peekVerified(key string) (*CacheEntry, bool) {
	if !s.auditArmed() {
		return s.cache.peek(key)
	}
	e, outcome := s.cache.VerifyEntry(key)
	if outcome == VerifyCorrupt {
		s.auditQuarantineServe(e)
	}
	if outcome != VerifyOK {
		return nil, false
	}
	return &e, true
}

// AuditRepairPending returns the number of quarantined keys awaiting
// repair via replication re-sync (only ever nonzero on a follower; the
// replica sync loop polls it to decide when to re-snapshot).
func (s *Server) AuditRepairPending() int {
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	return len(s.audit.repairPending)
}

// auditSettleRepairs runs after replicated state lands on a follower:
// every pending repair key whose entry is back in the cache with a
// clean digest is counted repaired and forgotten.
func (s *Server) auditSettleRepairs() {
	s.audit.mu.Lock()
	if len(s.audit.repairPending) == 0 {
		s.audit.mu.Unlock()
		return
	}
	keys := make([]string, 0, len(s.audit.repairPending))
	for k := range s.audit.repairPending {
		keys = append(keys, k)
	}
	s.audit.mu.Unlock()
	for _, k := range keys {
		start := time.Now()
		if _, outcome := s.cache.VerifyEntry(k); outcome != VerifyOK {
			continue
		}
		s.audit.mu.Lock()
		_, still := s.audit.repairPending[k]
		delete(s.audit.repairPending, k)
		s.audit.mu.Unlock()
		if still {
			s.metrics.incAuditRepair()
			s.span(serverTrace, "audit.repair", start, time.Since(start), "key", k, "mode", "resync")
		}
	}
}

// AuditSummary is the GET /v1/audit document: scrubber configuration,
// lifetime counters, the last pass, and the most recently quarantined
// keys (bounded).
type AuditSummary struct {
	Enabled    bool    `json:"enabled"`
	IntervalMs int64   `json:"intervalMs"`
	SampleRate float64 `json:"sampleRate"`
	Seed       uint64  `json:"seed"`

	Passes         uint64 `json:"passes"`
	EntriesScanned uint64 `json:"entriesScanned"`
	Reexecutions   uint64 `json:"reexecutions"`
	Mismatches     uint64 `json:"mismatches"`
	Corruptions    uint64 `json:"corruptions"`
	Repairs        uint64 `json:"repairs"`
	RepairPending  int    `json:"repairPending"`

	LastPassUnix       int64           `json:"lastPassUnix"`
	LastPassDurationMs int64           `json:"lastPassDurationMs"`
	LastPass           AuditPassReport `json:"lastPass"`

	RecentQuarantined []string `json:"recentQuarantined"`
}

// AuditReport assembles the /v1/audit document.
func (s *Server) AuditReport() AuditSummary {
	sum := AuditSummary{
		Enabled:    s.auditArmed(),
		IntervalMs: s.cfg.ScrubInterval.Milliseconds(),
		SampleRate: s.cfg.AuditSampleRate,
		Seed:       s.cfg.AuditSeed,
	}
	sum.Passes, sum.EntriesScanned, sum.Reexecutions,
		sum.Mismatches, sum.Corruptions, sum.Repairs = s.metrics.auditCounters()

	s.audit.mu.Lock()
	if !s.audit.lastPass.IsZero() {
		sum.LastPassUnix = s.audit.lastPass.Unix()
	}
	sum.LastPassDurationMs = s.audit.lastDur.Milliseconds()
	sum.LastPass = s.audit.lastReport
	sum.RepairPending = len(s.audit.repairPending)
	sum.RecentQuarantined = append([]string{}, s.audit.recent...)
	s.audit.mu.Unlock()
	return sum
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.AuditReport())
}
