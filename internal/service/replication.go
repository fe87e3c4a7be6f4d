package service

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Warm-standby replication.
//
// A primary serves its record log to followers over HTTP:
//
//	GET  /v1/replication/stream?from=N    long-poll a batch of log lines
//	GET  /v1/replication/snapshot         the compacted segment Persist writes
//	POST /v1/replication/promote          follower -> serving primary
//
// Both responses are plain record lines, the bytes the log already
// holds: a batch is a header record (the window's bounds, or
// snapshotNeeded) followed by the window's lines from N; the snapshot is
// a checkpoint, a done record per cache entry, a submitted record per
// live job, and a trailer counting them. The follower verifies every
// line — frame CRC and entry digest — before applying anything, so a
// corrupted stream (lying disk, torn proxy, flipped bit) is detected and
// refused, never served. It applies records through the same apply path
// as boot replay, appends each verified batch to its own journal with
// one write, and mirrors the primary's sequence in its own log, so a
// promoted follower can itself be followed. A warm standby executes
// nothing; on promotion it serves every settled key from the replicated
// cache (zero duplicate simulated cycles), sheds re-enqueued jobs whose
// propagated deadline has passed, and re-enqueues the rest into a
// freshly started worker pool.

// Sentinel errors for replication roles.
var (
	// ErrFollowing reports that this daemon is a warm standby: it
	// accepts no submissions until promoted (HTTP 503 — the client's
	// pool fails over to a serving endpoint).
	ErrFollowing = errors.New("service: following a primary, not accepting jobs")

	// ErrNotFollowing reports a replication-apply or promote call on a
	// daemon that is not (or no longer) a follower.
	ErrNotFollowing = errors.New("service: not following a primary")

	// ErrReplCorrupt reports a replication batch or snapshot that failed
	// its CRC, content-digest or trailer verification: the data is
	// refused.
	ErrReplCorrupt = errors.New("service: replication data failed integrity verification")

	// ErrReplGap reports a stream discontinuity: the follower's next
	// expected sequence number is not in the primary's window (behind
	// it, or ahead of a primary whose log restarted behind the follower),
	// so it must re-sync from a snapshot.
	ErrReplGap = errors.New("service: replication stream gap, snapshot re-sync required")
)

// Following reports whether the daemon is a warm standby.
func (s *Server) Following() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.following
}

// ReplNextApply returns the next replication sequence number this
// follower expects (1 before any sync).
func (s *Server) ReplNextApply() uint64 { return s.log.nextSeq() }

// ReplicationLag returns how many primary records this follower has not
// yet applied (0 when it has never heard from a primary, or is not a
// follower).
func (s *Server) ReplicationLag() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicationLagLocked()
}

func (s *Server) replicationLagLocked() int64 {
	if next := s.log.nextSeq(); s.replPrimaryNext > next {
		return int64(s.replPrimaryNext - next)
	}
	return 0
}

// readReplicated reads and verifies a whole replication response,
// counting what it refuses.
func (s *Server) readReplicated(r io.Reader) ([]journalRecord, [][]byte, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	recs, lines, err := decodeLines(body)
	switch {
	case errors.Is(err, errDigest):
		s.metrics.incReplDigestMismatch()
	case err != nil:
		s.metrics.incReplCorrupt()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrReplCorrupt, err)
	}
	return recs, lines, nil
}

// ApplyReplicatedSnapshot verifies and applies a primary's segment (the
// GET /v1/replication/snapshot body) on a follower. Every record is
// verified first and the segment must end in a trailer that counts its
// records; anything less is refused whole with ErrReplCorrupt. The
// segment is the primary's whole live state: it replaces the follower's
// job table (live jobs come back pending — the standby executes
// nothing), fills the cache, and restarts the follower's log at the
// checkpoint's sequence number. The follower then checkpoints (Persist),
// so a restart resumes from the bootstrapped state and sequence, not from
// records of the timeline it replaced; if that checkpoint fails, its
// durable file still holds only the old timeline. Returns the number of
// cache entries applied.
func (s *Server) ApplyReplicatedSnapshot(r io.Reader) (int, error) {
	recs, _, err := s.readReplicated(r)
	if err != nil {
		return 0, err
	}
	if !wholeSegment(recs) {
		s.metrics.incReplCorrupt()
		return 0, fmt.Errorf("%w: segment without a matching trailer", ErrReplCorrupt)
	}

	s.mu.Lock()
	if !s.following {
		s.mu.Unlock()
		return 0, ErrNotFollowing
	}
	s.jobs, s.order = make(map[string]*Job), nil
	entries := 0
	for _, rec := range recs {
		s.applyLocked(rec)
		if rec.Entry != nil {
			entries++
		}
	}
	s.log.reset(recs[0].Seq)
	s.replPrimaryNext = recs[0].Seq
	s.mu.Unlock()

	s.Persist()
	// Quarantined keys the scrubber marked repair-pending may just have
	// been restored by this verified snapshot.
	s.auditSettleRepairs()
	return entries, nil
}

// ApplyReplicatedBatch verifies and applies one stream response (the
// GET /v1/replication/stream body) on a follower. Every line's CRC and
// entry digest is checked before anything is applied (a failure
// refuses the whole batch — the follower re-requests from the same
// sequence), lines already applied are skipped, a hole demands a
// snapshot re-sync, and the rest are appended verbatim to the
// follower's log — one journal write and one fsync for the batch — and
// applied, so the standby's durable state is promotion-ready at every
// instant. Returns the number of records applied.
func (s *Server) ApplyReplicatedBatch(r io.Reader) (int, error) {
	start := time.Now()
	recs, lines, err := s.readReplicated(r)
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 || recs[0].Op != opBatch {
		s.metrics.incReplCorrupt()
		return 0, fmt.Errorf("%w: batch without a header", ErrReplCorrupt)
	}
	hdr := recs[0]
	recs, lines = recs[1:], lines[1:]

	s.mu.Lock()
	if !s.following {
		s.mu.Unlock()
		return 0, ErrNotFollowing
	}
	s.replPrimaryNext = hdr.Seq
	if hdr.SnapshotNeeded {
		s.mu.Unlock()
		return 0, ErrReplGap
	}
	next := s.log.nextSeq()
	for len(recs) > 0 && recs[0].Seq < next {
		recs, lines = recs[1:], lines[1:] // already applied (snapshot overlap or batch replay)
	}
	for k, rec := range recs {
		if rec.Seq != next+uint64(k) {
			s.mu.Unlock()
			return 0, fmt.Errorf("%w: have %d, got %d", ErrReplGap, next+uint64(k), rec.Seq)
		}
	}
	if len(recs) > 0 {
		// Durability and chainability: the follower's own journal survives
		// its crashes, and its own window lets another standby follow it
		// after promotion.
		if _, err := s.log.appendLines(lines); err != nil {
			s.degrade("journal append", err)
		}
		for _, rec := range recs {
			s.applyLocked(rec)
		}
	}
	lag := s.replicationLagLocked()
	s.mu.Unlock()

	s.metrics.addReplApplied(len(recs))
	if len(recs) > 0 {
		d := time.Since(start)
		s.span(serverTrace, "replicate.apply", start, d,
			"frames", strconv.Itoa(len(recs)), "lag", strconv.FormatInt(lag, 10))
		s.auditSettleRepairs()
	}
	return len(recs), nil
}

// PromoteStats summarizes a promotion: how the replicated pending set
// was disposed of.
type PromoteStats struct {
	FromCache  int `json:"fromCache"`  // pending jobs settled from the replicated cache (zero cycles)
	Reenqueued int `json:"reenqueued"` // pending jobs re-enqueued for execution
	Shed       int `json:"shed"`       // pending jobs shed because their propagated deadline had passed
}

// Promote turns a warm standby into a serving primary: every replicated
// pending job whose key is already settled in the cache completes
// immediately from the replicated bytes (zero duplicate simulated
// cycles), pending jobs whose propagated deadline has passed are shed
// (canceled, never executed), and the rest are re-enqueued into a
// freshly started worker pool. Submissions are accepted from the moment
// Promote returns. Errors with ErrNotFollowing if the daemon is not a
// follower (including a second Promote).
func (s *Server) Promote() (PromoteStats, error) {
	start := time.Now()
	var st PromoteStats

	s.mu.Lock()
	if !s.following {
		s.mu.Unlock()
		return st, ErrNotFollowing
	}
	if s.draining {
		s.mu.Unlock()
		return st, ErrDraining
	}
	s.following = false

	now := time.Now()
	var reenqueue []*Job
	for _, id := range s.order {
		job, ok := s.jobs[id]
		if !ok || job.State != JobQueued {
			continue
		}
		if e, ok := s.peekVerified(job.Key); ok {
			rec := doneRecord(job, e)
			s.record(job.TraceID, rec)
			s.settleLocked(job, rec, true)
			st.FromCache++
			continue
		}
		if !job.Deadline.IsZero() && !now.Before(job.Deadline) {
			rec := journalRecord{Op: opCanceled, ID: job.ID, Key: job.Key, Error: "deadline expired before promotion"}
			s.record(job.TraceID, rec)
			s.settleLocked(job, rec, false)
			s.metrics.incShedExpired()
			st.Shed++
			continue
		}
		reenqueue = append(reenqueue, job)
	}
	st.Reenqueued = len(reenqueue)
	s.startWorkers(reenqueue)
	s.mu.Unlock()

	s.metrics.notePromotion(st)
	d := time.Since(start)
	s.span(serverTrace, "promote", start, d,
		"fromCache", strconv.Itoa(st.FromCache),
		"reenqueued", strconv.Itoa(st.Reenqueued),
		"shed", strconv.Itoa(st.Shed))
	s.logger.Info("promoted to primary",
		"fromCache", st.FromCache, "reenqueued", st.Reenqueued, "shed", st.Shed)
	return st, nil
}

// handleReplStream serves GET /v1/replication/stream: a batch from
// ?from=N (default 1), long-polling up to ?wait=ms when the log has
// nothing new, at most ?max lines (default 512).
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	from := uint64(1)
	if v := q.Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad from "+v)
			return
		}
		from = n
	}
	wait, err := parseWait(q.Get("wait"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	max := 512
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad max "+v)
			return
		}
		max = min(n, 4096)
	}

	deadline := time.Now().Add(wait)
	for {
		lines, first, next, notify := s.log.fetch(from, max)
		resync := from < first || from > next
		if resync || len(lines) > 0 || wait <= 0 || !time.Now().Before(deadline) {
			head, err := frameRecord(journalRecord{Op: opBatch, First: first, Seq: next, SnapshotNeeded: resync})
			if err != nil {
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write(head)
			for _, line := range lines {
				w.Write(line)
			}
			s.metrics.addReplSent(len(lines))
			if len(lines) > 0 {
				s.span(serverTrace, "replicate.send", start, time.Since(start),
					"from", strconv.FormatUint(from, 10), "frames", strconv.Itoa(len(lines)))
			}
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-notify:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

// handleReplSnapshot serves GET /v1/replication/snapshot: the compacted
// segment, live jobs included, encoded one record at a time.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mu.Lock()
	seg := s.segmentLocked(true)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	bw := bufio.NewWriter(w)
	if writeRecords(bw, seg) != nil || bw.Flush() != nil {
		return // the follower sees a segment without its trailer and refuses it
	}
	s.metrics.incReplSnapshotsServed()
	s.span(serverTrace, "replicate.send", start, time.Since(start),
		"snapshot", "true", "records", strconv.Itoa(len(seg)))
}

// handlePromote serves POST /v1/replication/promote.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	st, err := s.Promote()
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}
