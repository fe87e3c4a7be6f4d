package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/workloads"
)

func testCell(t *testing.T, seed uint64) (harness.CellSpec, canonicalCell) {
	t.Helper()
	spec := harness.CellSpec{
		Workload: workloads.Names()[0],
		Scale:    workloads.ScaleTiny,
		Seed:     seed,
	}.Normalize()
	return spec, encodeCell(spec)
}

// frameLine is the test-side framing helper: one CRC-framed journal
// line, as the writer produces it.
func frameLine(t *testing.T, rec journalRecord) []byte {
	t.Helper()
	line, err := frameRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// readRecords collects every record readSegment hands out.
func readRecords(fsys FS, path string, keepDigestBad bool) (recs []journalRecord, torn, quarantined int, err error) {
	torn, quarantined, err = readSegment(fsys, path, keepDigestBad, func(rec journalRecord) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, torn, quarantined, err
}

// openTestLog opens a record log on a fresh journal file.
func openTestLog(t *testing.T, path string) *recordLog {
	t.Helper()
	l := newRecordLog(64)
	if err := l.open(OSFS{}, path); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestJournalAppendReplay: records appended to the log come back from
// the file in order, sequenced, and a daemon booted on the journal folds
// them through apply — latest outcome per job, result bytes from the
// done record's entry.
func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	l := openTestLog(t, path)
	_, cell1 := testCell(t, 1)
	_, cell2 := testCell(t, 2)
	result := json.RawMessage(`{"cycles":42}`)
	entry := &CacheEntry{Key: "k1", Workload: "w", Result: result, Digest: ResultDigest(result)}
	recs := []journalRecord{
		{Op: opSubmitted, ID: "job-000000", Key: "k1", Cell: &cell1},
		{Op: opSubmitted, ID: "job-000001", Key: "k2", Cell: &cell2},
		{Op: opDone, ID: "job-000000", Key: "k1", Entry: entry},
		{Op: opFailed, ID: "job-000001", Key: "k2", Error: "boom", Kind: "panic"},
	}
	for _, r := range recs {
		if _, err := l.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.records(); got != uint64(len(recs)) {
		t.Fatalf("records() = %d, want %d", got, len(recs))
	}
	l.detach()

	got, torn, quarantined, err := readRecords(OSFS{}, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || quarantined != 0 || len(got) != len(recs) {
		t.Fatalf("read %d records, torn = %d, quarantined = %d; want %d/0/0", len(got), torn, quarantined, len(recs))
	}
	for i, rec := range got {
		if rec.Seq != uint64(i+1) || rec.Op != recs[i].Op || rec.ID != recs[i].ID {
			t.Fatalf("record %d = seq %d %s %s, want seq %d %s %s", i, rec.Seq, rec.Op, rec.ID, i+1, recs[i].Op, recs[i].ID)
		}
	}
	// The recorded cell decodes back to the spec it encoded.
	spec1, _ := testCell(t, 1)
	back, err := got[0].Cell.spec()
	if err != nil {
		t.Fatal(err)
	}
	if back.Normalize() != spec1 {
		t.Fatalf("cell round-trip: got %+v want %+v", back.Normalize(), spec1)
	}

	s, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	if rec := s.Recovery(); rec.Replayed != 2 || rec.FromCache != 1 || rec.Terminal != 1 || rec.Reenqueued != 0 {
		t.Fatalf("recovery = %+v, want 2 replayed, 1 from cache, 1 terminal", rec)
	}
	if v, _ := s.Lookup("job-000000"); v.State != JobDone || string(v.Result) != string(result) {
		t.Fatalf("job 0 folded wrong: %+v", v)
	}
	if v, _ := s.Lookup("job-000001"); v.State != JobFailed || v.Error != "boom" || v.ErrorKind != "panic" {
		t.Fatalf("job 1 folded wrong: %+v", v)
	}
	if s.ReplNextApply() != uint64(len(recs)+1) {
		t.Fatalf("log resumed at seq %d, want %d", s.ReplNextApply(), len(recs)+1)
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	recs, torn, quarantined, err := readRecords(OSFS{}, filepath.Join(t.TempDir(), "nope.wal"), false)
	if err != nil || torn != 0 || quarantined != 0 || len(recs) != 0 {
		t.Fatalf("missing journal: records=%d torn=%d quarantined=%d err=%v", len(recs), torn, quarantined, err)
	}
}

func TestJournalDeadlineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	_, cell := testCell(t, 1)
	line := frameLine(t, journalRecord{
		Op: opSubmitted, ID: "job-000000", Key: "k1", Cell: &cell,
		Deadline: "2026-08-08T12:00:00.000000001Z",
	})
	if err := os.WriteFile(path, line, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := readRecords(OSFS{}, path, false)
	if err != nil || len(recs) != 1 {
		t.Fatalf("records=%d err=%v", len(recs), err)
	}
	if recs[0].Deadline != "2026-08-08T12:00:00.000000001Z" {
		t.Fatalf("deadline did not survive replay: %q", recs[0].Deadline)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	_, cell := testCell(t, 1)
	line := frameLine(t, journalRecord{Op: opSubmitted, ID: "job-000000", Key: "k1", Cell: &cell})
	// A complete record followed by a crash-truncated half line.
	torn2 := frameLine(t, journalRecord{Op: opDone, ID: "job-000000", Key: "k1"})
	if err := os.WriteFile(path, append(line, torn2[:len(torn2)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn, quarantined, err := readRecords(OSFS{}, path, false)
	if err != nil {
		t.Fatalf("torn tail should be tolerated, got %v", err)
	}
	if torn != 1 || quarantined != 0 || len(recs) != 1 || recs[0].Op != opSubmitted {
		t.Fatalf("records=%d torn=%d quarantined=%d", len(recs), torn, quarantined)
	}
	// A torn tail is not corruption: nothing is quarantined.
	if _, err := os.Stat(path + ".quarantine"); !os.IsNotExist(err) {
		t.Fatalf("torn tail wrote a quarantine file: %v", err)
	}
}

// TestJournalCorruptMidFileQuarantined is the CRC-framing payoff: a
// record corrupted in the middle of the journal (here a flipped byte
// that still leaves the line shaped like a frame) is detected by its
// checksum, quarantined to <path>.quarantine, and replay continues with
// every healthy record on both sides of it.
func TestJournalCorruptMidFileQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	_, cell1 := testCell(t, 1)
	_, cell2 := testCell(t, 2)
	good1 := frameLine(t, journalRecord{Op: opSubmitted, ID: "job-000000", Key: "k1", Cell: &cell1})
	victim := frameLine(t, journalRecord{Op: opSubmitted, ID: "job-000001", Key: "k2", Cell: &cell2})
	good2 := frameLine(t, journalRecord{Op: opDone, ID: "job-000000", Key: "k1"})

	// Flip the low bit of a byte in the middle of the victim's payload
	// (a low-bit flip of printable JSON can never mint a newline, so the
	// line stays one line).
	victim = bytes.Clone(victim)
	victim[len(victim)/2] ^= 0x01

	var content []byte
	content = append(content, good1...)
	content = append(content, victim...)
	content = append(content, good2...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, torn, quarantined, err := readRecords(OSFS{}, path, false)
	if err != nil {
		t.Fatalf("mid-file corruption should quarantine, not fail replay: %v", err)
	}
	if quarantined != 1 || torn != 0 {
		t.Fatalf("quarantined=%d torn=%d, want 1/0", quarantined, torn)
	}
	if len(recs) != 2 || recs[0].Op != opSubmitted || recs[1].ID != "job-000000" || recs[1].Op != opDone {
		t.Fatalf("healthy records around the corruption not replayed: %+v", recs)
	}

	// The corrupt bytes are preserved for post-mortem, not destroyed.
	q, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !bytes.Contains(q, bytes.TrimSuffix(victim, []byte("\n"))) {
		t.Fatal("quarantine file does not contain the corrupt record bytes")
	}
}

// TestJournalCorruptRunBeforeTornTail: several bad lines at EOF — the
// last is the crash-torn tail, the earlier ones are real corruption.
func TestJournalCorruptRunBeforeTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	_, cell := testCell(t, 1)
	good := frameLine(t, journalRecord{Op: opSubmitted, ID: "job-000000", Key: "k1", Cell: &cell})
	bad := frameLine(t, journalRecord{Op: opCanceled, ID: "job-000000", Key: "k1"})
	bad = bytes.Clone(bad)
	bad[12] ^= 0xFF
	tail := frameLine(t, journalRecord{Op: opDone, ID: "job-000000", Key: "k1"})

	var content []byte
	content = append(content, good...)
	content = append(content, bad...)
	content = append(content, tail[:len(tail)-5]...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn, quarantined, err := readRecords(OSFS{}, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 1 || quarantined != 1 || len(recs) != 1 {
		t.Fatalf("records=%d torn=%d quarantined=%d, want 1/1/1", len(recs), torn, quarantined)
	}
}

func TestJournalSchemaMismatchIgnoredWholesale(t *testing.T) {
	// A framed record under a future schema version, CRC intact.
	path := filepath.Join(t.TempDir(), "journal.wal")
	payload, _ := json.Marshal(journalRecord{Schema: journalSchemaVersion + 1, Op: opSubmitted, ID: "job-000000"})
	line := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	line = append(line, '\n')
	if err := os.WriteFile(path, line, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn, quarantined, err := readRecords(OSFS{}, path, false)
	if err != nil || torn != 0 || quarantined != 0 || len(recs) != 0 {
		t.Fatalf("stale schema: records=%d torn=%d quarantined=%d err=%v (want all zero)", len(recs), torn, quarantined, err)
	}

	// A pre-framing (schema 1) journal of bare JSON lines: also ignored
	// wholesale, never treated as corruption.
	old := filepath.Join(t.TempDir(), "old.wal")
	bare, _ := json.Marshal(journalRecord{Schema: 1, Op: opSubmitted, ID: "job-000000"})
	if err := os.WriteFile(old, append(bare, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn, quarantined, err = readRecords(OSFS{}, old, false)
	if err != nil || torn != 0 || quarantined != 0 || len(recs) != 0 {
		t.Fatalf("schema-1 journal: records=%d torn=%d quarantined=%d err=%v (want all zero)", len(recs), torn, quarantined, err)
	}
	if _, err := os.Stat(old + ".quarantine"); !os.IsNotExist(err) {
		t.Fatal("a stale-schema journal must not be quarantined as corruption")
	}
}

// TestJournalRotate: compaction replaces the file with the given
// segment followed by the records logged since its checkpoint was taken,
// later appends land in the rotated file, and the sequence carries on
// across the rotation. A checkpoint the window no longer reaches leaves
// the old journal in place.
func TestJournalRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	l := openTestLog(t, path)
	defer l.detach()
	_, cell := testCell(t, 1)
	for i, op := range []journalOp{opSubmitted, opCanceled, opDone} {
		if _, err := l.append(journalRecord{Op: op, ID: "job-000000", Key: "k1", Cell: &cell}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	seg := []journalRecord{
		{Op: opCheckpoint, Seq: l.nextSeq(), KeySchema: keySchemaVersion},
		{Op: opSubmitted, ID: "job-000007", Key: "k7", Cell: &cell},
		{Op: opEnd, Count: 1},
	}
	// Logged after the checkpoint was taken, before the rotation.
	if _, err := l.append(journalRecord{Op: opSubmitted, ID: "job-000008", Key: "k8", Cell: &cell}); err != nil {
		t.Fatal(err)
	}
	if ok, err := l.rotate(seg); !ok || err != nil {
		t.Fatalf("rotate: rotated=%v err=%v", ok, err)
	}
	// Appends after rotation land in the rotated file.
	if _, err := l.append(journalRecord{Op: opCanceled, ID: "job-000007", Key: "k7"}); err != nil {
		t.Fatal(err)
	}
	l.detach()

	recs, torn, quarantined, err := readRecords(OSFS{}, path, false)
	if err != nil || torn != 0 || quarantined != 0 {
		t.Fatalf("replay after rotate: torn=%d quarantined=%d err=%v", torn, quarantined, err)
	}
	if len(recs) != 5 || !wholeSegment(recs[:3]) || recs[1].ID != "job-000007" ||
		recs[3].ID != "job-000008" || recs[3].Seq != 4 || recs[4].Op != opCanceled || recs[4].Seq != 5 {
		t.Fatalf("rotated journal replay wrong: %+v", recs)
	}

	// The window (two lines) wraps past the checkpoint: no rotation.
	wrapped := filepath.Join(t.TempDir(), "journal.wal")
	w := newRecordLog(2)
	if err := w.open(OSFS{}, wrapped); err != nil {
		t.Fatal(err)
	}
	defer w.detach()
	seg[0].Seq = w.nextSeq()
	for i := 0; i < 3; i++ {
		w.append(journalRecord{Op: opCanceled, ID: "job-000000", Key: "k1"})
	}
	if ok, err := w.rotate(seg); ok || err != nil {
		t.Fatalf("rotate past the window: rotated=%v err=%v, want neither", ok, err)
	}
	if recs, _, _, _ := readRecords(OSFS{}, wrapped, false); len(recs) != 3 {
		t.Fatalf("old journal not kept: %d records, want 3", len(recs))
	}
	if _, err := os.Stat(wrapped + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("dropped rotation left its temp file: %v", err)
	}
}

// TestJournalRotateUnderAppends: records appended from several
// goroutines while rotations write their segments all land in the
// journal, each once and in sequence order, after the last checkpoint.
func TestJournalRotateUnderAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	l := openTestLog(t, path)
	defer l.detach()
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.append(journalRecord{Op: opCanceled, ID: "job-000000", Key: "k1"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	rotations := 0
	for r := 0; r < 20; r++ {
		seg := []journalRecord{{Op: opCheckpoint, Seq: l.nextSeq(), KeySchema: keySchemaVersion}, {Op: opEnd}}
		rotated, err := l.rotate(seg)
		if err != nil {
			t.Fatal(err)
		}
		if rotated {
			rotations++
		}
	}
	wg.Wait()
	l.detach()

	recs, torn, quarantined, err := readRecords(OSFS{}, path, false)
	if err != nil || torn != 0 || quarantined != 0 || rotations == 0 {
		t.Fatalf("replay: torn=%d quarantined=%d err=%v after %d rotations", torn, quarantined, err, rotations)
	}
	if len(recs) < 2 || !wholeSegment(recs[:2]) {
		t.Fatalf("journal does not start with a segment: %+v", recs)
	}
	tail := recs[2:]
	for k, rec := range tail {
		if rec.Seq != recs[0].Seq+uint64(k) {
			t.Fatalf("tail record %d has seq %d, want %d", k, rec.Seq, recs[0].Seq+uint64(k))
		}
	}
	if last := recs[0].Seq + uint64(len(tail)); last != writers*each+1 {
		t.Fatalf("journal ends before seq %d, want %d", last, writers*each+1)
	}
}
