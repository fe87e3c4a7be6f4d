package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"

	"repro/internal/jsondec"
)

// The record log. Every byte asfd persists or replicates is a
// journalRecord in one encoding — an 8-hex-digit CRC32 (IEEE) of the
// JSON payload, a space, the payload, a newline — and every reader
// decodes it through parseFrame. The journal file, the cache snapshot
// (a compacted segment), the replication window, the replication stream
// and the follower bootstrap all carry these lines.

// journalSchemaVersion guards the record encoding the same way
// keySchemaVersion guards the cache: records written under a different
// schema are ignored wholesale (their specs may no longer name the same
// computations), never misinterpreted. Version 2 added per-record CRC32
// framing and the propagated deadline.
const journalSchemaVersion = 2

// journalOp is the kind of a record: a job lifecycle transition, or one
// of the framing records that bound a segment or a replication batch.
type journalOp string

const (
	opSubmitted journalOp = "submitted"
	opDone      journalOp = "done"
	opFailed    journalOp = "failed"
	opCanceled  journalOp = "canceled"

	// opCheckpoint heads a compacted segment: Seq is the next sequence
	// number the log assigns, NextID the next job ID it issues.
	opCheckpoint journalOp = "checkpoint"
	// opEnd closes a compacted segment: Count is the number of records
	// between the checkpoint and the trailer.
	opEnd journalOp = "end"
	// opBatch heads a replication stream response: First and Seq bound
	// the primary's window, SnapshotNeeded sends the follower to the
	// snapshot.
	opBatch journalOp = "batch"
)

// journalRecord is one line of the record log. Submitted records carry
// the canonical cell (and the propagated deadline, when one was set) so
// a recovering daemon or a promoted follower can re-enqueue the job
// without any other state; done records carry the settled cache entry
// with its content digest; failed and canceled records carry the
// outcome.
type journalRecord struct {
	Schema int       `json:"schema"`
	Op     journalOp `json:"op"`
	// Seq is the record's position in the log, assigned by append (0 on
	// the records of a compacted segment, which restate state rather
	// than log it). On a checkpoint or batch header it is the next
	// position the log assigns.
	Seq      uint64         `json:"seq,omitempty"`
	ID       string         `json:"id,omitempty"`
	Key      string         `json:"key,omitempty"`
	Cell     *canonicalCell `json:"cell,omitempty"`
	Deadline string         `json:"deadline,omitempty"` // RFC3339Nano; set on submitted records when the job carried one
	Error    string         `json:"error,omitempty"`
	Kind     string         `json:"kind,omitempty"` // failure kind ("panic"/"error") on failed records
	Entry    *CacheEntry    `json:"entry,omitempty"`

	NextID         uint64 `json:"nextId,omitempty"`         // checkpoint
	KeySchema      int    `json:"keySchema,omitempty"`      // checkpoint
	Count          int    `json:"count,omitempty"`          // end trailer
	First          uint64 `json:"first,omitempty"`          // batch header
	SnapshotNeeded bool   `json:"snapshotNeeded,omitempty"` // batch header
}

// nextSeq is the log position that follows rec: the record's own Seq
// plus one, the Seq a checkpoint announces, or 0 for unsequenced
// records.
func (rec journalRecord) nextSeq() uint64 {
	switch {
	case rec.Op == opCheckpoint:
		return rec.Seq
	case rec.Seq > 0:
		return rec.Seq + 1
	}
	return 0
}

// Decode failures, as parseFrame and readSegment report them.
var (
	// errFrame: the line is malformed or its CRC does not match.
	errFrame = errors.New("service: record fails its frame check")
	// errDigest: the frame is intact but the entry's result bytes do not
	// hash to its recorded digest.
	errDigest = errors.New("service: record entry fails its content digest")
	// errStale: a well-formed record written under another record or key
	// schema (including pre-framing schema-1 journals of bare JSON lines).
	errStale = errors.New("service: record written under another schema")
	// errNotSegment: a snapshot file whose first record is not a
	// checkpoint.
	errNotSegment = errors.New("service: snapshot is not a compacted segment")
)

// frameRecord encodes one record line.
func frameRecord(rec journalRecord) ([]byte, error) {
	rec.Schema = journalSchemaVersion
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("service: encoding record: %w", err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	return append(line, '\n'), nil
}

// parseFrame decodes one record line (with or without its newline) and
// verifies it: the CRC, the schema and, on records that carry a cache
// entry, the entry's content digest. Every reader of the log verifies
// here. On errDigest the decoded record is returned too, so the caller
// can say which entry failed.
func parseFrame(line []byte) (rec journalRecord, err error) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	if len(line) > 9 && line[8] == ' ' {
		if crc, perr := strconv.ParseUint(string(line[:8]), 16, 32); perr == nil {
			payload := line[9:]
			if crc32.ChecksumIEEE(payload) != uint32(crc) || jsondec.Unmarshal(payload, &rec) != nil {
				return journalRecord{}, errFrame
			}
			if rec.Schema != journalSchemaVersion || (rec.Op == opCheckpoint && rec.KeySchema != keySchemaVersion) {
				return journalRecord{}, errStale
			}
			if e := rec.Entry; e != nil && (e.Digest == "" || ResultDigest(e.Result) != e.Digest) {
				return rec, errDigest
			}
			return rec, nil
		}
	}
	// Not framed. A bare JSON record is an old-schema journal (framing
	// arrived with schema 2); anything else is corruption.
	var old journalRecord
	if json.Unmarshal(line, &old) == nil && old.Schema != 0 && old.Schema != journalSchemaVersion {
		return journalRecord{}, errStale
	}
	return journalRecord{}, errFrame
}

// writeRecords encodes recs one at a time onto w.
func writeRecords(w io.Writer, recs []journalRecord) error {
	for _, rec := range recs {
		line, err := frameRecord(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// writeSegment atomically replaces path with recs: a temp file written
// one record at a time, fsync'd and renamed over path. A crash at any
// point leaves either the old file or the new one, never a torn mix.
// Journal compaction (recordLog.rotate) runs the same two halves with the
// log's tail appended in between.
func writeSegment(fsys FS, path string, recs []journalRecord) error {
	f, err := writeTemp(fsys, path, recs)
	if err != nil {
		return err
	}
	return commitTemp(fsys, f, path, nil)
}

// writeTemp writes recs to path's temp file and fsyncs it, leaving the
// file open for commitTemp (on failure, removed).
func writeTemp(fsys FS, path string, recs []journalRecord) (File, error) {
	f, err := fsys.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err = writeRecords(w, recs); err == nil {
		if err = w.Flush(); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		fsys.Remove(path + ".tmp")
		return nil, err
	}
	return f, nil
}

// commitTemp appends lines to the temp file writeTemp left open, fsyncs
// and closes it, and renames it over path (on failure, removes it).
func commitTemp(fsys FS, f File, path string, lines [][]byte) error {
	var err error
	if len(lines) > 0 {
		if _, err = f.Write(bytes.Join(lines, nil)); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(path+".tmp", path)
	}
	if err != nil {
		fsys.Remove(path + ".tmp")
	}
	return err
}

// readSegment scans the log file at path (scanRecords) and hands every
// record that verifies to apply. Bad lines are quarantined record by
// record into <path>.quarantine and counted, and the scan goes on.
func readSegment(fsys FS, path string, keepDigestBad bool, apply func(journalRecord) error) (torn, quarantined int, err error) {
	var quarantine File
	torn, err = scanRecords(fsys, path, keepDigestBad, apply, func(line []byte) error {
		if quarantine == nil {
			q, qerr := fsys.Append(path + ".quarantine")
			if qerr != nil {
				return fmt.Errorf("service: opening quarantine: %w", qerr)
			}
			quarantine = q
		}
		if _, werr := quarantine.Write(append(line, '\n')); werr != nil {
			return fmt.Errorf("service: writing quarantine: %w", werr)
		}
		quarantined++
		return nil
	})
	if quarantine != nil {
		quarantine.Close()
	}
	return torn, quarantined, err
}

// scanRecords reads the log file at path line by line, handing every
// record that verifies to apply as it is read (a boot holds one record at
// a time, not the whole file) and every line that does not to bad —
// except a bad final line, a crash mid-append, which is counted as torn.
// A record whose entry fails its digest is bad unless keepDigestBad is
// set (the integrity scrubber repairs those). A missing file, or none
// (path ""), is empty; a file under another schema is ignored. An error
// from apply or bad stops the scan and is returned.
func scanRecords(fsys FS, path string, keepDigestBad bool, apply func(journalRecord) error, bad func(line []byte) error) (torn int, err error) {
	if path == "" {
		return 0, nil
	}
	f, err := fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("service: opening %s: %w", path, err)
	}
	defer f.Close()

	// pending holds undecodable lines whose classification depends on what
	// follows: a good record after them proves mid-file corruption; end of
	// file leaves the last one as a torn tail.
	var pending [][]byte
	flush := func(keep int) error {
		for _, line := range pending[:len(pending)-keep] {
			if err := bad(line); err != nil {
				return err
			}
		}
		pending = pending[:0]
		return nil
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, perr := parseFrame(line)
		switch {
		case errors.Is(perr, errStale):
			return 0, nil
		case perr != nil && !(keepDigestBad && errors.Is(perr, errDigest)):
			pending = append(pending, bytes.Clone(line))
			continue
		}
		if err := flush(0); err != nil {
			return 0, err
		}
		if err := apply(rec); err != nil {
			return 0, err
		}
	}
	if serr := sc.Err(); serr != nil {
		return 0, fmt.Errorf("service: reading %s: %w", path, serr)
	}
	if len(pending) == 0 {
		return 0, nil
	}
	return 1, flush(1)
}

// decodeLines splits a replication response into its lines and verifies
// every one; the first failure refuses the whole body. Lines keep their
// newline, so they can be appended verbatim.
func decodeLines(body []byte) ([]journalRecord, [][]byte, error) {
	var recs []journalRecord
	var lines [][]byte
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return nil, nil, errFrame // a torn final line
		}
		line := body[:i+1]
		body = body[i+1:]
		rec, err := parseFrame(line)
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, rec)
		lines = append(lines, line)
	}
	return recs, lines, nil
}

// wholeSegment reports whether recs form one complete compacted
// segment: a checkpoint header, then a trailer counting every record in
// between.
func wholeSegment(recs []journalRecord) bool {
	n := len(recs)
	return n >= 2 && recs[0].Op == opCheckpoint && recs[n-1].Op == opEnd && recs[n-1].Count == n-2
}

// recordLog is the daemon's one log. append stamps a record with the
// next sequence number and encodes it once; the same bytes are written
// and fsync'd to the journal file when one is attached, kept in a ring
// of the last cap records (the replication window followers stream
// from), and announced to long-polling stream handlers. The mutex
// serializes all of it, so the file order, the window order and the
// sequence agree; it is a leaf, so appends may be made while holding the
// server mutex.
type recordLog struct {
	mu     sync.Mutex
	fs     FS
	path   string
	f      File          // nil: journaling off, detached or failed
	failed string        // first disk failure, "" while healthy
	lines  [][]byte      // ring storage; lines[head] holds seq first
	head   int           // ring index of the oldest line
	cap    int           // window size
	first  uint64        // seq of the oldest line in the window
	next   uint64        // next seq to assign
	notify chan struct{} // closed and replaced on every append (long-poll wakeup)

	written uint64 // records written to the file since open (metrics)
}

func newRecordLog(capacity int) *recordLog {
	return &recordLog{cap: capacity, first: 1, next: 1, notify: make(chan struct{})}
}

// open attaches the journal file at path for appending.
func (l *recordLog) open(fsys FS, path string) error {
	f, err := fsys.Append(path)
	if err != nil {
		return fmt.Errorf("service: opening journal: %w", err)
	}
	l.mu.Lock()
	l.fs, l.path, l.f = fsys, path, f
	l.mu.Unlock()
	return nil
}

// append stamps, encodes and logs one record. It reports whether the
// journal file took it; a non-nil error means the write or fsync failed
// (the record still reached the window) and the caller degrades.
func (l *recordLog) append(rec journalRecord) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.Seq = l.next
	line, err := frameRecord(rec)
	if err != nil {
		return false, err
	}
	return l.writeLocked([][]byte{line})
}

// appendLines logs records that are already encoded and verified — a
// follower's streamed batch, whose first line must carry the log's next
// sequence number — verbatim, with one write and one fsync for the
// whole batch.
func (l *recordLog) appendLines(lines [][]byte) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeLocked(lines)
}

func (l *recordLog) writeLocked(lines [][]byte) (journaled bool, err error) {
	if l.f != nil {
		journaled = true
		buf := lines[0]
		if len(lines) > 1 {
			buf = bytes.Join(lines, nil)
		}
		if _, err = l.f.Write(buf); err != nil {
			err = fmt.Errorf("service: journal append: %w", err)
		} else if err = l.f.Sync(); err != nil {
			err = fmt.Errorf("service: journal fsync: %w", err)
		} else {
			l.written += uint64(len(lines))
		}
	}
	for _, line := range lines {
		if len(l.lines) < l.cap {
			l.lines = append(l.lines, line)
		} else {
			l.lines[l.head] = line
			l.head = (l.head + 1) % l.cap
			l.first++
		}
		l.next++
	}
	close(l.notify)
	l.notify = make(chan struct{})
	return journaled, err
}

// fetch returns up to max lines starting at seq from, the window's
// bounds, and the channel that closes on the next append. No lines come
// back when from is outside [first, next): behind the window, or ahead
// of a log that restarted behind its follower — either way the follower
// must re-sync from a snapshot.
func (l *recordLog) fetch(from uint64, max int) (lines [][]byte, first, next uint64, notify <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first, next, notify = l.first, l.next, l.notify
	if from < first || from >= next {
		return nil, first, next, notify
	}
	return l.linesLocked(from, max), first, next, notify
}

// linesLocked returns up to max window lines from seq from, which must
// lie in [first, next]. Caller holds l.mu.
func (l *recordLog) linesLocked(from uint64, max int) [][]byte {
	lines := make([][]byte, min(int(l.next-from), max))
	if len(lines) == 0 {
		return nil
	}
	i := (l.head + int(from-l.first)) % len(l.lines)
	n := copy(lines, l.lines[i:])
	copy(lines[n:], l.lines)
	return lines
}

// nextSeq returns the next sequence number the log assigns.
func (l *recordLog) nextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// reset empties the window and restarts the sequence at next: after
// recovery, and after a follower bootstraps from a snapshot.
func (l *recordLog) reset(next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines, l.head, l.first, l.next = nil, 0, next, next
}

// verifyAll re-checks every line in the window and returns how many no
// longer verify: the scrubber's sweep of the in-memory replication
// plane. Lines cannot be repaired in place (a follower refuses them on
// fetch anyway); a nonzero count is a detection signal.
func (l *recordLog) verifyAll() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	bad := 0
	for _, line := range l.lines {
		if _, err := parseFrame(line); err != nil {
			bad++
		}
	}
	return bad
}

// rotate compacts the journal to seg, whose checkpoint was taken at log
// position seg[0].Seq. The segment is written and fsync'd without the log
// mutex, so appends (and submissions, which append holding the server
// mutex) never wait for it. Then, under the mutex, the window's lines
// from the checkpoint on follow it verbatim, and the file is fsync'd,
// renamed over the journal and reopened. It reports false, keeping the
// old journal, when none is attached or the window no longer holds the
// checkpoint's position (it wrapped during the write, or was reset).
func (l *recordLog) rotate(seg []journalRecord) (bool, error) {
	l.mu.Lock()
	fsys, path := l.fs, l.path
	l.mu.Unlock()
	f, err := writeTemp(fsys, path, seg)
	if err != nil {
		return false, fmt.Errorf("service: journal rotate: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	from := seg[0].Seq
	if l.f == nil || from < l.first || from > l.next {
		f.Close()
		fsys.Remove(path + ".tmp")
		return false, nil
	}
	if err := commitTemp(fsys, f, path, l.linesLocked(from, int(l.next-from))); err != nil {
		return false, fmt.Errorf("service: journal rotate: %w", err)
	}
	// The old handle points at the unlinked inode; reopen on the fresh
	// file so later appends land in the rotated journal.
	l.f.Close()
	if l.f, err = fsys.Append(path); err != nil {
		l.f = nil
		return false, fmt.Errorf("service: journal reopen after rotate: %w", err)
	}
	return true, nil
}

// journaling reports whether a journal file is attached.
func (l *recordLog) journaling() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f != nil
}

// records returns the number of records written to the journal file
// since it was opened.
func (l *recordLog) records() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// fail records a disk failure and detaches the journal: the daemon is
// memory-only from here on, and appends keep feeding the window. It
// reports whether this was the first failure (first reason wins).
func (l *recordLog) fail(reason string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeLocked()
	if l.failed != "" {
		return false
	}
	l.failed = reason
	return true
}

// failure returns the first disk failure's reason, "" while healthy.
func (l *recordLog) failure() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// detach closes the journal file; later appends are memory-only.
func (l *recordLog) detach() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeLocked()
}

func (l *recordLog) closeLocked() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}
