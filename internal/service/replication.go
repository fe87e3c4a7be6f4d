package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Warm-standby replication.
//
// A primary asfd appends every job lifecycle record to an in-memory
// replication log (independent of the disk journal, which rotates) and
// serves it to followers over HTTP:
//
//	GET  /v1/replication/stream?from=N    long-poll a frame batch
//	GET  /v1/replication/snapshot         full checkpoint (cache + live jobs)
//	POST /v1/replication/promote          follower -> serving primary
//
// Every frame carries a CRC32 of its own encoding and, on done records,
// the full cache entry with its SHA-256 result digest; the follower
// verifies both before applying anything, so a corrupted stream (lying
// disk, torn proxy, flipped bit) is detected and refused, never served.
// A follower applies frames into its own journal and cache — a warm
// standby executes nothing — and on promotion serves every settled key
// from the replicated cache (zero duplicate simulated cycles), sheds
// re-enqueued jobs whose propagated deadline has passed, and re-enqueues
// the rest into a freshly started worker pool.

// Sentinel errors for replication roles.
var (
	// ErrFollowing reports that this daemon is a warm standby: it
	// accepts no submissions until promoted (HTTP 503 — the client's
	// pool fails over to a serving endpoint).
	ErrFollowing = errors.New("service: following a primary, not accepting jobs")

	// ErrNotFollowing reports a replication-apply or promote call on a
	// daemon that is not (or no longer) a follower.
	ErrNotFollowing = errors.New("service: not following a primary")

	// ErrReplCorrupt reports a replication frame or snapshot that failed
	// its CRC or content-digest verification: the data is refused.
	ErrReplCorrupt = errors.New("service: replication data failed integrity verification")

	// ErrReplGap reports a stream discontinuity: the follower's next
	// expected sequence number is no longer in the primary's log, so it
	// must re-sync from a snapshot checkpoint.
	ErrReplGap = errors.New("service: replication stream gap, snapshot re-sync required")
)

// ReplFrame is one replicated journal record: the record itself, the
// full cache entry when the record settles a key (op "done"), a monotone
// per-primary sequence number, and a CRC32 (IEEE) of the frame's JSON
// encoding with CRC zeroed. The CRC covers everything — sequence,
// record, entry bytes — so any single flipped bit in transit or at rest
// fails verification.
type ReplFrame struct {
	Seq    uint64        `json:"seq"`
	Record journalRecord `json:"record"`
	Entry  *CacheEntry   `json:"entry,omitempty"`
	CRC    uint32        `json:"crc"`
}

// computeCRC returns the frame's CRC32: the checksum of its JSON
// encoding with the CRC field zeroed. Both sides marshal the same
// struct, so the encoding — and therefore the checksum — is identical.
func (f ReplFrame) computeCRC() uint32 {
	f.CRC = 0
	b, err := json.Marshal(f)
	if err != nil {
		return 0
	}
	return crc32.ChecksumIEEE(b)
}

// verify reports whether the frame's recorded CRC matches its contents.
func (f ReplFrame) verify() bool { return f.CRC != 0 && f.CRC == f.computeCRC() }

// ReplBatch is the GET /v1/replication/stream response: zero or more
// consecutive frames starting at the requested sequence, plus the
// primary log's current bounds. SnapshotNeeded is set when the requested
// sequence has been trimmed from the log — the follower must re-sync
// from GET /v1/replication/snapshot before streaming again.
type ReplBatch struct {
	Frames         []ReplFrame `json:"frames"`
	FirstSeq       uint64      `json:"firstSeq"`
	NextSeq        uint64      `json:"nextSeq"`
	SnapshotNeeded bool        `json:"snapshotNeeded,omitempty"`
}

// ReplJob is one live (not yet terminal) job inside a replication
// snapshot: enough for a promoted follower to re-enqueue it.
type ReplJob struct {
	ID       string         `json:"id"`
	Key      string         `json:"key"`
	Cell     *canonicalCell `json:"cell"`
	Deadline string         `json:"deadline,omitempty"`
}

// ReplSnapshot is the GET /v1/replication/snapshot document: a full
// checkpoint of the primary's cache and live job set, stamped with the
// sequence number to resume streaming from. Seq is captured before the
// entries are gathered, so a record landing mid-snapshot is both in the
// snapshot and re-streamed — applying it twice is idempotent.
type ReplSnapshot struct {
	Seq     uint64       `json:"seq"`
	Entries []CacheEntry `json:"entries"`
	Jobs    []ReplJob    `json:"jobs"`
	CRC     uint32       `json:"crc"`
}

func (sn ReplSnapshot) computeCRC() uint32 {
	sn.CRC = 0
	b, err := json.Marshal(sn)
	if err != nil {
		return 0
	}
	return crc32.ChecksumIEEE(b)
}

func (sn ReplSnapshot) verify() bool { return sn.CRC != 0 && sn.CRC == sn.computeCRC() }

// replLog is the primary's bounded in-memory replication log: a window
// of CRC-stamped frames with monotone sequence numbers (starting at 1),
// kept in a ring that grows to capacity and then overwrites its oldest
// frame. Followers that fall behind the window re-sync from a snapshot.
// The log has its own lock and is safe to append to while holding the
// server mutex.
type replLog struct {
	mu     sync.Mutex
	cap    int
	frames []ReplFrame   // ring storage; frames[head] holds seq first
	head   int           // ring index of the oldest frame
	first  uint64        // seq of the oldest frame
	next   uint64        // next seq to assign
	notify chan struct{} // closed and replaced on every append (long-poll wakeup)
}

func newReplLog(capacity int) *replLog {
	return &replLog{cap: capacity, first: 1, next: 1, notify: make(chan struct{})}
}

// append stamps, checksums and stores one frame, waking any long-polling
// stream handlers.
func (l *replLog) append(rec journalRecord, entry *CacheEntry) {
	rec.Schema = journalSchemaVersion
	l.mu.Lock()
	f := ReplFrame{Seq: l.next, Record: rec, Entry: entry}
	f.CRC = f.computeCRC()
	if len(l.frames) < l.cap {
		l.frames = append(l.frames, f)
	} else {
		l.frames[l.head] = f
		l.head = (l.head + 1) % l.cap
		l.first++
	}
	l.next++
	ch := l.notify
	l.notify = make(chan struct{})
	l.mu.Unlock()
	close(ch)
}

// fetch copies up to max frames starting at seq from, plus the log
// bounds and the channel that closes on the next append (for long-poll
// waits). An empty result with from < first means the window has moved
// past the caller: snapshot re-sync required.
func (l *replLog) fetch(from uint64, max int) (frames []ReplFrame, first, next uint64, notify <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first, next, notify = l.first, l.next, l.notify
	if from < first || from >= next {
		return nil, first, next, notify
	}
	frames = make([]ReplFrame, min(int(next-from), max))
	i := (l.head + int(from-first)) % len(l.frames)
	n := copy(frames, l.frames[i:])
	copy(frames[n:], l.frames)
	return frames, first, next, notify
}

// verifyAll re-checks the CRC of every frame currently in the window
// and returns the number that no longer verify — the scrubber's sweep
// over the in-memory replication plane. Frames cannot be repaired in
// place (followers refuse them on fetch anyway); a nonzero count is a
// detection signal, reported per pass.
func (l *replLog) verifyAll() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	bad := 0
	for i := range l.frames {
		if !l.frames[i].verify() {
			bad++
		}
	}
	return bad
}

// nextSeq returns the next sequence number the log will assign.
func (l *replLog) nextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// replicate appends one lifecycle record to the replication log. Called
// at every journal site (and on sites where disk journaling is off or
// degraded — replication is an independent durability plane).
func (s *Server) replicate(rec journalRecord, entry *CacheEntry) {
	if s.repl != nil {
		s.repl.append(rec, entry)
	}
}

// Following reports whether the daemon is a warm standby.
func (s *Server) Following() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.following
}

// ReplNextApply returns the next replication sequence number this
// follower expects (1 before any sync).
func (s *Server) ReplNextApply() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replNextApply
}

// ReplicationLag returns how many primary records this follower has not
// yet applied (0 when it has never heard from a primary, or is not a
// follower).
func (s *Server) ReplicationLag() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicationLagLocked()
}

func (s *Server) replicationLagLocked() int64 {
	if s.replPrimaryNext == 0 || s.replPrimaryNext <= s.replNextApply {
		return 0
	}
	return int64(s.replPrimaryNext - s.replNextApply)
}

// ReplicationSnapshot assembles the checkpoint a follower boots from:
// every cache entry (with its content digest) plus every live job. The
// resume sequence is captured first so no record can fall between the
// snapshot and the stream.
func (s *Server) ReplicationSnapshot() *ReplSnapshot {
	snap := &ReplSnapshot{Seq: s.repl.nextSeq()}
	s.mu.Lock()
	for _, id := range s.order {
		job, ok := s.jobs[id]
		if !ok || job.State.terminal() {
			continue
		}
		cell := encodeCell(job.Spec)
		rj := ReplJob{ID: job.ID, Key: job.Key, Cell: &cell}
		if !job.Deadline.IsZero() {
			rj.Deadline = job.Deadline.Format(time.RFC3339Nano)
		}
		snap.Jobs = append(snap.Jobs, rj)
	}
	s.mu.Unlock()
	snap.Entries = s.cache.Entries()
	snap.CRC = snap.computeCRC()
	return snap
}

// ApplyReplicatedSnapshot verifies and applies a primary checkpoint on a
// follower: CRC first, then every entry's content digest — an entry
// whose result bytes do not hash to its recorded digest is counted and
// dropped (never enters the cache), and the snapshot as a whole is
// refused with ErrReplCorrupt so the follower re-fetches. Live jobs are
// registered as pending (the standby executes nothing). Returns the
// number of cache entries applied.
func (s *Server) ApplyReplicatedSnapshot(snap *ReplSnapshot) (int, error) {
	if !snap.verify() {
		s.metrics.incReplCorrupt()
		return 0, fmt.Errorf("%w: snapshot CRC mismatch", ErrReplCorrupt)
	}
	for i := range snap.Entries {
		e := &snap.Entries[i]
		if e.Digest == "" || ResultDigest(e.Result) != e.Digest {
			s.metrics.incReplDigestMismatch()
			return 0, fmt.Errorf("%w: snapshot entry %s digest mismatch", ErrReplCorrupt, e.Key)
		}
	}

	s.mu.Lock()
	if !s.following {
		s.mu.Unlock()
		return 0, ErrNotFollowing
	}
	for _, rj := range snap.Jobs {
		s.applyPendingJobLocked(rj)
	}
	if snap.Seq > s.replNextApply {
		s.replNextApply = snap.Seq
	}
	if snap.Seq > s.replPrimaryNext {
		s.replPrimaryNext = snap.Seq
	}
	s.mu.Unlock()

	applied := 0
	for i := range snap.Entries {
		e := snap.Entries[i]
		s.cache.Put(&e)
		applied++
	}
	// Quarantined keys the scrubber marked repair-pending may just have
	// been restored by this verified snapshot.
	s.auditSettleRepairs()
	return applied, nil
}

// applyPendingJobLocked registers one replicated live job as pending
// (queued, never enqueued — the follower has no workers). Idempotent on
// re-sync. Caller holds s.mu.
func (s *Server) applyPendingJobLocked(rj ReplJob) {
	s.bumpIDLocked(rj.ID)
	if _, ok := s.jobs[rj.ID]; ok {
		return
	}
	if rj.Cell == nil {
		return
	}
	spec, err := rj.Cell.spec()
	if err != nil {
		return // replicated under an enum this build no longer knows
	}
	job := &Job{
		ID:    rj.ID,
		Key:   rj.Key,
		Spec:  spec.Normalize(),
		State: JobQueued,
		Done:  make(chan struct{}),
	}
	if job.Key == "" {
		job.Key = Key(spec)
	}
	if rj.Deadline != "" {
		if dl, perr := time.Parse(time.RFC3339Nano, rj.Deadline); perr == nil {
			job.Deadline = dl
		}
	}
	s.registerLocked(job)
}

// bumpIDLocked advances the ID allocator past a replicated primary job
// ID so post-promotion submissions cannot collide. Caller holds s.mu.
func (s *Server) bumpIDLocked(id string) {
	var n uint64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n >= s.nextID {
		s.nextID = n + 1
	}
}

// ApplyReplicatedBatch verifies and applies one stream batch on a
// follower. Every frame's CRC is checked (a mismatch refuses the whole
// batch — the follower re-requests from the same sequence), done-record
// entries have their content digests re-hashed, frames already applied
// are skipped idempotently, and a sequence gap demands a snapshot
// re-sync. Applied records are folded into the follower's job table and
// cache and appended to its own journal and replication log, so the
// standby's durable state is promotion-ready at every instant.
func (s *Server) ApplyReplicatedBatch(batch ReplBatch) (int, error) {
	start := time.Now()
	if batch.SnapshotNeeded {
		s.noteReplPrimaryNext(batch.NextSeq)
		return 0, ErrReplGap
	}
	for _, f := range batch.Frames {
		if !f.verify() {
			s.metrics.incReplCorrupt()
			return 0, fmt.Errorf("%w: frame %d CRC mismatch", ErrReplCorrupt, f.Seq)
		}
		if f.Entry != nil && (f.Entry.Digest == "" || ResultDigest(f.Entry.Result) != f.Entry.Digest) {
			s.metrics.incReplDigestMismatch()
			return 0, fmt.Errorf("%w: frame %d entry digest mismatch", ErrReplCorrupt, f.Seq)
		}
	}

	s.mu.Lock()
	if !s.following {
		s.mu.Unlock()
		return 0, ErrNotFollowing
	}
	applied := 0
	for i := range batch.Frames {
		f := batch.Frames[i]
		if f.Seq < s.replNextApply {
			continue // already applied (snapshot overlap or batch replay)
		}
		if f.Seq > s.replNextApply {
			s.mu.Unlock()
			s.metrics.addReplApplied(applied)
			return applied, fmt.Errorf("%w: have %d, got %d", ErrReplGap, s.replNextApply, f.Seq)
		}
		s.applyFrameLocked(f)
		s.replNextApply = f.Seq + 1
		applied++
	}
	if batch.NextSeq > s.replPrimaryNext {
		s.replPrimaryNext = batch.NextSeq
	}
	lag := s.replicationLagLocked()
	s.mu.Unlock()

	s.metrics.addReplApplied(applied)
	if applied > 0 {
		d := time.Since(start)
		s.span(serverTrace, "replicate.apply", start, d,
			"frames", strconv.Itoa(applied), "lag", strconv.FormatInt(lag, 10))
		s.auditSettleRepairs()
	}
	return applied, nil
}

// noteReplPrimaryNext records the primary's log head (lag bookkeeping)
// without applying anything.
func (s *Server) noteReplPrimaryNext(next uint64) {
	s.mu.Lock()
	if next > s.replPrimaryNext {
		s.replPrimaryNext = next
	}
	s.mu.Unlock()
}

// applyFrameLocked folds one verified frame into the follower's state:
// job table, cache (via the entry riding done records), local journal,
// and the follower's own replication log (so a promoted follower can
// itself be followed). Caller holds s.mu.
func (s *Server) applyFrameLocked(f ReplFrame) {
	rec := f.Record
	s.bumpIDLocked(rec.ID)

	if f.Entry != nil {
		// Safe under s.mu: the cache has its own lock and never takes the
		// server's.
		e := *f.Entry
		s.cache.Put(&e)
	}

	job, known := s.jobs[rec.ID]
	switch rec.Op {
	case opSubmitted:
		if !known {
			rj := ReplJob{ID: rec.ID, Key: rec.Key, Cell: rec.Cell, Deadline: rec.Deadline}
			s.applyPendingJobLocked(rj)
		}
	case opStarted:
		// The primary started executing; the standby keeps the job
		// pending — if the primary dies before the done record arrives,
		// promotion re-enqueues it.
	case opDone:
		if known && !job.State.terminal() {
			job.State = JobDone
			job.CacheHit = true
			if e, ok := s.cache.peek(job.Key); ok {
				job.Result = e.Result
			}
			job.closeDone()
		}
	case opFailed, opCanceled:
		if known && !job.State.terminal() {
			if rec.Op == opFailed {
				job.State = JobFailed
			} else {
				job.State = JobCanceled
			}
			job.Err = rec.Error
			job.ErrKind = rec.Kind
			job.closeDone()
		}
	}

	// Durability and chainability: the follower's own journal survives
	// its crashes, and its own replication log lets another standby
	// follow it after promotion.
	s.appendLocked(rec)
	s.repl.append(rec, f.Entry)
}

// PromoteStats summarizes a promotion: how the replicated pending set
// was disposed of.
type PromoteStats struct {
	FromCache  int `json:"fromCache"`  // pending jobs settled from the replicated cache (zero cycles)
	Reenqueued int `json:"reenqueued"` // pending jobs re-enqueued for execution
	Shed       int `json:"shed"`       // pending jobs shed because their propagated deadline had passed
}

// Promote turns a warm standby into a serving primary: the worker pool
// starts, every replicated pending job whose key is already settled in
// the cache completes immediately from the replicated bytes (zero
// duplicate simulated cycles), pending jobs whose propagated deadline
// has passed are shed (canceled, never executed), and the rest are
// re-enqueued for execution. Submissions are accepted from the moment
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

	var pending []*Job
	for _, id := range s.order {
		if job, ok := s.jobs[id]; ok && job.State == JobQueued {
			pending = append(pending, job)
		}
	}
	// The queue must hold the whole pending set up front (workers start
	// below); Submit keeps enforcing the configured bound itself.
	qcap := s.cfg.QueueDepth
	if len(pending) > qcap {
		qcap = len(pending)
	}
	s.queue = make(chan *Job, qcap)

	now := time.Now()
	for _, job := range pending {
		if e, ok := s.peekVerified(job.Key); ok {
			job.State = JobDone
			job.CacheHit = true
			job.Result = e.Result
			job.closeDone()
			s.appendLockedTimed(job.TraceID, journalRecord{Op: opDone, ID: job.ID, Key: job.Key})
			s.repl.append(journalRecord{Op: opDone, ID: job.ID, Key: job.Key}, e)
			s.metrics.incCompleted()
			st.FromCache++
			continue
		}
		if !job.Deadline.IsZero() && !now.Before(job.Deadline) {
			job.State = JobCanceled
			job.Err = "deadline expired before promotion"
			job.closeDone()
			rec := journalRecord{Op: opCanceled, ID: job.ID, Key: job.Key, Error: job.Err}
			s.appendLockedTimed(job.TraceID, rec)
			s.repl.append(rec, nil)
			s.metrics.incShedExpired()
			s.metrics.incCanceled()
			st.Shed++
			continue
		}
		job.enqueuedAt = time.Now()
		s.queue <- job
		st.Reenqueued++
	}

	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
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

// writeRawJSON is writeJSON without indentation: replication payloads
// embed raw result bytes whose digests must survive the round trip, and
// re-indenting would rewrite them.
func writeRawJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleReplStream serves GET /v1/replication/stream: a frame batch
// from ?from=N (default 1), long-polling up to ?wait=ms when the log has
// nothing new, at most ?max frames (default 512).
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
		if n > 4096 {
			n = 4096
		}
		max = n
	}

	deadline := time.Now().Add(wait)
	for {
		frames, first, next, notify := s.repl.fetch(from, max)
		if from < first {
			writeRawJSON(w, http.StatusOK, ReplBatch{Frames: []ReplFrame{}, FirstSeq: first, NextSeq: next, SnapshotNeeded: true})
			return
		}
		if len(frames) > 0 || wait <= 0 || !time.Now().Before(deadline) {
			s.metrics.addReplSent(len(frames))
			if len(frames) > 0 {
				d := time.Since(start)
				s.span(serverTrace, "replicate.send", start, d,
					"from", strconv.FormatUint(from, 10), "frames", strconv.Itoa(len(frames)))
			}
			writeRawJSON(w, http.StatusOK, ReplBatch{Frames: frames, FirstSeq: first, NextSeq: next})
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

// handleReplSnapshot serves GET /v1/replication/snapshot.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	snap := s.ReplicationSnapshot()
	s.metrics.incReplSnapshotsServed()
	d := time.Since(start)
	s.span(serverTrace, "replicate.send", start, d,
		"snapshot", "true", "entries", strconv.Itoa(len(snap.Entries)), "jobs", strconv.Itoa(len(snap.Jobs)))
	writeRawJSON(w, http.StatusOK, snap)
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
