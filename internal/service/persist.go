package service

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// recover replays the daemon's durable file — the journal, else the
// cache snapshot — through apply as it is scanned, restores the log's
// sequence and the ID allocator, and attaches the journal for appending.
// It returns the unfinished jobs in submission order. A journal that is
// not one clean segment (records after the trailer, a bad line, no
// checkpoint) is compacted; after a clean shutdown it is only reopened.
// A snapshot that is not a segment at all, or a file that cannot be read
// (I/O failure, unwritable quarantine), is renamed aside to
// <path>.corrupt-<unix time> and the daemon boots without the rest.
func (s *Server) recover() ([]*Job, error) {
	path, journaling := s.cfg.JournalPath, s.cfg.JournalPath != ""
	if !journaling {
		path = s.cfg.SnapshotPath
	}
	next, n := uint64(1), 0
	var first, last journalRecord
	s.mu.Lock()
	// Digest-failed entries are kept when the scrubber is armed: it
	// quarantines and repairs them itself.
	torn, bad, err := readSegment(s.cfg.FS, path, s.auditArmed(), func(rec journalRecord) error {
		if !journaling && n == 0 && rec.Op != opCheckpoint {
			return errNotSegment
		}
		if n == 0 {
			first = rec
		}
		n++
		last = rec
		s.applyLocked(rec)
		next = max(next, rec.nextSeq())
		return nil
	})
	clean := err == nil && torn+bad == 0 && first.Op == opCheckpoint && last.Op == opEnd && last.Count == n-2
	if err != nil || (!journaling && n == 0 && torn+bad > 0) {
		aside := fmt.Sprintf("%s.corrupt-%d", path, time.Now().Unix())
		if rerr := s.cfg.FS.Rename(path, aside); rerr != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("service: quarantining corrupt %s: %w", path, rerr)
		}
		s.metrics.incQuarantines()
		torn, bad = 0, 0
	}
	var pending []*Job
	st := RecoveryStats{Replayed: len(s.order), Torn: torn, Quarantined: bad}
	for _, id := range s.order {
		switch job := s.jobs[id]; job.State {
		case JobQueued:
			pending = append(pending, job)
		case JobDone:
			st.FromCache++
		default:
			st.Terminal++
		}
	}
	st.Reenqueued = len(pending)
	s.mu.Unlock()
	s.log.reset(next)

	if !journaling {
		if torn+bad > 0 {
			s.recovery.SnapshotQuarantined = torn + bad
			s.metrics.addSnapshotEntryQuarantines(torn + bad)
			s.logger.Warn("snapshot records failed verification and were quarantined",
				"records", torn+bad, "path", path+".quarantine")
		}
		return pending, nil
	}
	s.recovery = st
	s.metrics.noteRecovery(st)
	if err := s.log.open(s.cfg.FS, path); err != nil {
		return nil, err
	}
	if !clean {
		s.Persist()
	}
	return pending, nil
}

// applyLocked folds one verified record into the server's state. It is
// the only way a read record changes state: boot replay, the follower
// stream and the follower bootstrap all call it, and it is idempotent —
// a record logged while a checkpoint was gathered is both in the segment
// and after it, and a follower re-syncing from a snapshot sees records it
// already has. Caller holds s.mu.
func (s *Server) applyLocked(rec journalRecord) {
	s.bumpIDLocked(rec.ID)
	s.nextID = max(s.nextID, rec.NextID)
	if rec.Entry != nil {
		// Safe under s.mu: the cache has its own lock and never takes the
		// server's.
		e := *rec.Entry
		s.cache.Put(&e)
	}
	job, known := s.jobs[rec.ID]
	switch rec.Op {
	case opSubmitted:
		if !known && rec.Cell != nil {
			s.registerPendingLocked(rec)
		}
	case opDone, opFailed, opCanceled:
		// A done record whose entry was quarantined leaves its job
		// pending, to be re-run.
		if known && !job.State.terminal() && (rec.Op != opDone || rec.Entry != nil) {
			s.outcomeLocked(job, rec, true)
		}
	}
}

// registerPendingLocked registers a replayed or replicated job as
// queued (not enqueued: the caller decides what to do with pending
// jobs). Caller holds s.mu.
func (s *Server) registerPendingLocked(rec journalRecord) {
	spec, err := rec.Cell.spec()
	if err != nil {
		return // recorded under an enum this build no longer knows
	}
	job := &Job{
		ID:    rec.ID,
		Key:   rec.Key,
		Spec:  spec.Normalize(),
		State: JobQueued,
		Done:  make(chan struct{}),
	}
	if job.Key == "" {
		job.Key = Key(spec)
	}
	if rec.Deadline != "" {
		// The propagated deadline survives the crash: a recovered (or
		// promoted) job whose deadline has passed is shed, never
		// executed.
		if dl, perr := time.Parse(time.RFC3339Nano, rec.Deadline); perr == nil {
			job.Deadline = dl
		}
	}
	s.registerLocked(job)
}

// bumpIDLocked advances the ID allocator past a recorded job ID so new
// submissions cannot collide with it. Caller holds s.mu.
func (s *Server) bumpIDLocked(id string) {
	digits, ok := strings.CutPrefix(id, "job-")
	if n, err := strconv.ParseUint(digits, 10, 64); ok && err == nil && n >= s.nextID {
		s.nextID = n + 1
	}
}

// flushLoop checkpoints the daemon (Persist) every interval, so a crash
// loses at most one interval of cache entries and the journal stays
// compact.
func (s *Server) flushLoop(interval time.Duration) {
	defer close(s.flushDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Persist()
		case <-s.flushStop:
			return
		}
	}
}

func (s *Server) stopFlush() {
	s.flushOnce.Do(func() { close(s.flushStop) })
	<-s.flushDone
}

// Persist checkpoints the daemon now: one compacted segment of its state
// (segmentLocked), committed with one rename. While journaling, the
// journal is compacted to it, live jobs included (recordLog.rotate); in
// the cache-only mode it replaces the snapshot file. A daemon with no
// durable file, a killed one and a degraded one write nothing; a disk
// failure degrades to memory-only mode. The segment is gathered under
// s.mu but written without it. A job settling meanwhile stays listed as
// live one checkpoint longer; replaying it is idempotent by determinism.
func (s *Server) Persist() error {
	journaling := s.cfg.JournalPath != ""
	if !journaling && s.cfg.SnapshotPath == "" {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	var seg []journalRecord
	s.mu.Lock()
	if !s.killed {
		seg = s.segmentLocked(journaling)
	}
	s.mu.Unlock()
	if seg == nil || s.log.failure() != "" {
		return nil
	}

	// Flushes belong to no request; they trace under the "server"
	// pseudo-trace so slow disks still show up in /v1/traces.
	flushStart := time.Now()
	defer func() {
		d := time.Since(flushStart)
		s.stages.snapshot.Observe(d)
		s.span(serverTrace, "snapshot", flushStart, d)
	}()

	if !journaling {
		if err := writeSegment(s.cfg.FS, s.cfg.SnapshotPath, seg); err != nil {
			s.degrade("snapshot write", err)
			return fmt.Errorf("service: writing cache snapshot: %w", err)
		}
		s.metrics.incSnapshotWrites()
		return nil
	}
	rotated, err := s.log.rotate(seg)
	if err != nil {
		s.degrade("journal rotation", err)
		return fmt.Errorf("service: rotating journal: %w", err)
	}
	if rotated {
		s.metrics.incRotations()
	}
	return nil
}

// segmentLocked assembles a compacted segment of the daemon's state: the
// checkpoint header, a done record per cache entry (in Cache.Entries
// order, so a reload lists the same Cache.Keys), a submitted record per
// live job when jobs is set, and the trailer. The sequence number is read
// first, so a record appended while the entries are gathered is both in
// the segment and after its checkpoint — applying it twice is
// idempotent. Caller holds s.mu.
func (s *Server) segmentLocked(jobs bool) []journalRecord {
	recs := []journalRecord{{Op: opCheckpoint, Seq: s.log.nextSeq(), NextID: s.nextID, KeySchema: keySchemaVersion}}
	for _, e := range s.cache.Entries() {
		recs = append(recs, journalRecord{Op: opDone, Key: e.Key, Entry: &e})
	}
	if jobs {
		for _, id := range s.order {
			if job, ok := s.jobs[id]; ok && !job.State.terminal() {
				recs = append(recs, submittedRecord(job))
			}
		}
	}
	return append(recs, journalRecord{Op: opEnd, Count: len(recs) - 1})
}
