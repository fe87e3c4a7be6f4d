package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// The integrity subsystem's decoders sit on the blast radius of at-rest
// corruption: log lines (journal, snapshot, replication) and
// client-supplied cell specs all arrive as untrusted bytes. The contract
// under fuzzing is uniform — decoders ERROR on garbage, they never panic
// — plus the canonical round-trip invariants the audit scrubber leans
// on.

// FuzzJournalDecode throws arbitrary bytes at the one record codec: as a
// single line (parseFrame), and as a multi-line body through both
// replication readers, the batch reader and the segment reader, on a
// live follower. Nothing may panic; a line parseFrame accepts must
// re-frame to a line that verifies; and a reader may accept only what
// verifies line by line — a batch must open with its header, a segment
// must be whole, checkpoint to counting trailer.
func FuzzJournalDecode(f *testing.F) {
	if line, err := frameRecord(journalRecord{Op: opDone, ID: "job-7", Key: "abc"}); err == nil {
		f.Add(bytes.TrimSuffix(line, []byte("\n")))
	}
	f.Add([]byte(`00000000 {"schema":2,"op":"done","id":"job-1"}`))
	f.Add([]byte(`{"schema":1,"op":"submitted","id":"job-0"}`))
	f.Add([]byte("deadbeef "))
	f.Add([]byte(""))
	result := json.RawMessage(`{"cycles":1}`)
	entry := &CacheEntry{Key: "k", Result: result, Digest: ResultDigest(result)}
	seg := []journalRecord{
		{Op: opCheckpoint, Seq: 3, NextID: 2, KeySchema: keySchemaVersion},
		{Op: opDone, Key: "k", Entry: entry},
		{Op: opEnd, Count: 1},
	}
	var segment bytes.Buffer
	writeRecords(&segment, seg)
	batch, _ := frameRecord(journalRecord{Op: opBatch, First: 1, Seq: 2})
	done, _ := frameRecord(journalRecord{Op: opDone, Seq: 1, ID: "job-1", Key: "k", Entry: entry})
	f.Add(append(bytes.Clone(batch), done...))                                              // a batch header and one record
	f.Add(segment.Bytes())                                                                  // a segment with its trailer
	f.Add(segment.Bytes()[:bytes.LastIndexByte(segment.Bytes()[:segment.Len()-1], '\n')+1]) // cut before the trailer

	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := parseFrame(data); err == nil {
			// An accepted line re-encodes to an identical, verifiable line.
			line, err := frameRecord(rec)
			if err != nil {
				t.Fatalf("accepted line does not re-encode: %v", err)
			}
			if _, err := parseFrame(line); err != nil {
				t.Fatalf("re-framed record does not verify: %q", line)
			}
		}
		recs, _, verr := decodeLines(data)
		// A fresh follower each time, so an input means the same thing on
		// every run.
		follower, err := New(Config{Workers: 1, Following: true})
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Kill()
		if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(data)); err == nil || errors.Is(err, ErrReplGap) {
			if verr != nil || recs[0].Op != opBatch {
				t.Fatalf("batch reader accepted garbage: %q", data)
			}
		}
		if _, err := follower.ApplyReplicatedSnapshot(bytes.NewReader(data)); err == nil {
			if verr != nil || !wholeSegment(recs) {
				t.Fatalf("segment reader accepted garbage: %q", data)
			}
		}
	})
}

// FuzzCellSpecParse decodes arbitrary JSON as a JobRequest and runs the
// full spec parse/validate path, then the canonical-cell round trip the
// audit scrubber depends on: any spec the server accepts must survive
// encodeCell → spec() with its content address intact, or repair would
// re-execute the wrong cell.
func FuzzCellSpecParse(f *testing.F) {
	f.Add([]byte(`{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1,"cores":8}`))
	f.Add([]byte(`{"workload":"genome","detection":"baseline","scale":"small","retryPolicy":"backoff-capped"}`))
	f.Add([]byte(`{"workload":"_","scale":"galactic","cores":-1}`))
	f.Add([]byte(`{"faultInterruptRate":1e308,"maxCycles":-9223372036854775808}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var jr JobRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		if dec.Decode(&jr) != nil {
			return
		}
		spec, err := jr.Spec()
		if err != nil {
			return
		}
		norm := spec.Normalize()
		key := Key(norm)
		cell := encodeCell(norm)
		back, err := cell.spec()
		if err != nil {
			t.Fatalf("accepted spec does not round-trip through canonicalCell: %v", err)
		}
		if got := Key(back.Normalize()); got != key {
			t.Fatalf("canonical round trip moved the content address: %s -> %s", key, got)
		}
	})
}
