package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// fetchBody pulls one replication response body off a primary, the way
// a follower's sync loop does.
func fetchBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func fetchBatch(t *testing.T, ts *httptest.Server, from uint64, extra string) []byte {
	t.Helper()
	return fetchBody(t, ts, fmt.Sprintf("/v1/replication/stream?from=%d%s", from, extra))
}

func fetchSnapshot(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	return fetchBody(t, ts, "/v1/replication/snapshot")
}

// decodeBatch verifies a stream body and splits it into its header and
// its records (with their lines).
func decodeBatch(t *testing.T, body []byte) (journalRecord, []journalRecord, [][]byte) {
	t.Helper()
	recs, lines, err := decodeLines(body)
	if err != nil {
		t.Fatalf("batch does not verify after the HTTP round trip: %v", err)
	}
	if len(recs) == 0 || recs[0].Op != opBatch {
		t.Fatalf("batch without a header: %q", body)
	}
	return recs[0], recs[1:], lines[1:]
}

// reseal replaces old with new inside a record line's payload and
// re-seals the frame CRC over the result, as a lying proxy that
// re-frames would: only the content digest can still tell.
func reseal(t *testing.T, line []byte, old, new string) []byte {
	t.Helper()
	payload := bytes.TrimSuffix(line[9:], []byte("\n"))
	changed := bytes.Replace(payload, []byte(old), []byte(new), 1)
	if bytes.Equal(changed, payload) {
		t.Fatalf("%q not found in record", old)
	}
	return fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(changed), changed)
}

// batchBody assembles a stream body: a header then the given lines.
func batchBody(t *testing.T, first, next uint64, lines [][]byte) []byte {
	t.Helper()
	head := frameLine(t, journalRecord{Op: opBatch, First: first, Seq: next})
	return append(head, bytes.Join(lines, nil)...)
}

// TestReplicationStreamAndApply is the warm-standby happy path, run
// through the real HTTP surface: a primary executes a job, a follower
// pulls the batch off the wire, verifies every CRC and content digest,
// and ends up with the job settled and the result bytes byte-identical
// — without simulating a single cycle itself.
func TestReplicationStreamAndApply(t *testing.T) {
	_, primaryTS := newTestServer(t, Config{Workers: 2})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	if len(sr.Jobs) != 1 {
		t.Fatalf("accepted %d jobs, want 1", len(sr.Jobs))
	}
	primaryView := waitDone(t, primaryTS, sr.Jobs[0].ID)
	if primaryView.State != JobDone {
		t.Fatalf("primary job ended %s", primaryView.State)
	}

	body := fetchBatch(t, primaryTS, 1, "")
	hdr, recs, _ := decodeBatch(t, body)
	if len(recs) == 0 || hdr.SnapshotNeeded {
		t.Fatalf("expected records, got header %+v and %d records", hdr, len(recs))
	}

	follower, followerTS := newTestServer(t, Config{Workers: 2, Following: true})
	if !follower.Following() {
		t.Fatal("follower does not report Following")
	}
	applied, err := follower.ApplyReplicatedBatch(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if applied != len(recs) {
		t.Fatalf("applied %d of %d records", applied, len(recs))
	}
	if lag := follower.ReplicationLag(); lag != 0 {
		t.Fatalf("lag after full apply = %d, want 0", lag)
	}

	// The follower serves the settled job — same ID, same bytes.
	code, view := getJob(t, followerTS, sr.Jobs[0].ID)
	if code != http.StatusOK || view.State != JobDone {
		t.Fatalf("follower job: status %d state %s", code, view.State)
	}
	if !bytes.Equal(view.Result, primaryView.Result) {
		t.Fatal("replicated result bytes differ from the primary's")
	}
	// And executed nothing to get there.
	fm := getMetrics(t, followerTS)
	if fm.RunsExecuted != 0 || fm.SimCyclesExecuted != 0 {
		t.Fatalf("follower executed work: runs=%d cycles=%d", fm.RunsExecuted, fm.SimCyclesExecuted)
	}
	if fm.ReplFramesApplied != uint64(applied) {
		t.Fatalf("replFramesApplied = %d, want %d", fm.ReplFramesApplied, applied)
	}
	if fm.Role != "follower" {
		t.Fatalf("follower metrics role = %q", fm.Role)
	}

	// Applying the same batch again is an idempotent no-op.
	again, err := follower.ApplyReplicatedBatch(bytes.NewReader(body))
	if err != nil || again != 0 {
		t.Fatalf("re-apply: applied=%d err=%v", again, err)
	}

	h := follower.Health()
	if h.Role != "follower" || h.Status != "following" {
		t.Fatalf("follower health = %+v", h)
	}
}

// TestReplicationCorruptionRefused: any flipped bit in a batch — in a
// record, in the riding cache entry, or a torn final line — is detected
// before anything is applied, counted, and the whole batch refused.
func TestReplicationCorruptionRefused(t *testing.T) {
	_, primaryTS := newTestServer(t, Config{Workers: 2})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	waitDone(t, primaryTS, sr.Jobs[0].ID)
	body := fetchBatch(t, primaryTS, 1, "")
	hdr, recs, lines := decodeBatch(t, body)

	follower, _ := newTestServer(t, Config{Workers: 1, Following: true})
	before := follower.ReplNextApply()

	// CRC corruption: perturb a record without re-sealing it.
	bad := bytes.Clone(lines[0])
	bad[len(bad)/2] ^= 0x01
	if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(batchBody(t, hdr.First, hdr.Seq, [][]byte{bad}))); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("corrupt record applied: %v", err)
	}
	if follower.metrics.ReplCorruptFrames() == 0 {
		t.Fatal("corrupt record not counted")
	}

	// Digest corruption: change the entry's result bytes and re-seal the
	// frame CRC.
	withEntry := -1
	for i, rec := range recs {
		if rec.Entry != nil {
			withEntry = i
		}
	}
	if withEntry < 0 {
		t.Fatal("no record carries a cache entry")
	}
	tampered := append([][]byte(nil), lines...)
	tampered[withEntry] = reseal(t, lines[withEntry], `"cycles"`, `"cycLes"`)
	if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(batchBody(t, hdr.First, hdr.Seq, tampered))); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("digest-mismatched entry applied: %v", err)
	}
	if follower.metrics.ReplDigestMismatches() == 0 {
		t.Fatal("digest mismatch not counted")
	}

	// A torn final line (a response cut mid-record) is refused too.
	if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(body[:len(body)-5])); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("torn batch applied: %v", err)
	}

	// Nothing was applied by any refusal, and the poisoned result never
	// reached the follower's cache.
	if follower.ReplNextApply() != before {
		t.Fatal("refused batches advanced the apply cursor")
	}
	if _, ok := follower.cache.peek(recs[withEntry].Key); ok {
		t.Fatal("corrupt entry reached the follower cache")
	}
}

// TestReplicationGapAndSnapshotResync: a follower whose cursor has been
// trimmed out of the primary's bounded window is told to re-sync, and
// the snapshot segment carries everything it needs — digest-verified,
// and refused whole when tampered with or cut short.
func TestReplicationGapAndSnapshotResync(t *testing.T) {
	// A tiny cache (and so window) forces trimming almost immediately.
	primary, primaryTS := newTestServer(t, Config{Workers: 2, CacheEntries: 2})
	for i := 0; i < 3; i++ {
		_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":`+fmt.Sprint(i+1)+`}`)
		waitDone(t, primaryTS, sr.Jobs[0].ID)
	}
	if primary.log.nextSeq() <= 3 {
		t.Fatalf("expected >2 replicated records, nextSeq=%d", primary.log.nextSeq())
	}

	body := fetchBatch(t, primaryTS, 1, "")
	if hdr, _, _ := decodeBatch(t, body); !hdr.SnapshotNeeded {
		t.Fatalf("trimmed log did not demand a snapshot: %+v", hdr)
	}

	follower, _ := newTestServer(t, Config{Workers: 1, Following: true})
	if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(body)); !errors.Is(err, ErrReplGap) {
		t.Fatalf("snapshotNeeded batch did not surface ErrReplGap: %v", err)
	}
	// The gap still taught the follower how far behind it is.
	if follower.ReplicationLag() == 0 {
		t.Fatal("lag not recorded from the gap response")
	}

	snap := fetchSnapshot(t, primaryTS)
	recs, lines, err := decodeLines(snap)
	if err != nil || !wholeSegment(recs) {
		t.Fatalf("snapshot is not a whole verified segment after the HTTP round trip: %v", err)
	}
	entries := 0
	for _, rec := range recs {
		if rec.Entry != nil {
			entries++
		}
	}
	applied, err := follower.ApplyReplicatedSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("apply snapshot: %v", err)
	}
	if applied != entries || applied == 0 {
		t.Fatalf("applied %d of %d snapshot entries", applied, entries)
	}
	if follower.ReplNextApply() != recs[0].Seq {
		t.Fatalf("resume cursor = %d, want %d", follower.ReplNextApply(), recs[0].Seq)
	}

	// Streaming resumes cleanly from the snapshot's cursor.
	tail := fetchBatch(t, primaryTS, follower.ReplNextApply(), "")
	if hdr, _, _ := decodeBatch(t, tail); hdr.SnapshotNeeded {
		t.Fatal("post-snapshot cursor is still out of window")
	}
	if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(tail)); err != nil {
		t.Fatalf("apply tail: %v", err)
	}
	if follower.ReplicationLag() != 0 {
		t.Fatalf("lag after re-sync = %d", follower.ReplicationLag())
	}

	// A tampered snapshot is refused outright, and so is one cut short of
	// its trailer even though every line it has verifies.
	for i, rec := range recs {
		if rec.Entry != nil {
			bad := append([][]byte(nil), lines...)
			bad[i] = reseal(t, lines[i], `"cycles"`, `"cycLes"`)
			if _, err := follower.ApplyReplicatedSnapshot(bytes.NewReader(bytes.Join(bad, nil))); !errors.Is(err, ErrReplCorrupt) {
				t.Fatalf("tampered snapshot applied: %v", err)
			}
			break
		}
	}
	short := bytes.Join(lines[:len(lines)-1], nil)
	if _, err := follower.ApplyReplicatedSnapshot(bytes.NewReader(short)); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("snapshot without its trailer applied: %v", err)
	}
}

// TestReplLogRingWrap: once the window is full the log overwrites its
// oldest line in place. Fetches that straddle the ring's wrap still
// return consecutive, verifying lines cut to max, and a cursor behind
// the window — or ahead of the log — gets nothing (snapshot re-sync).
func TestReplLogRingWrap(t *testing.T) {
	log := newRecordLog(4)
	for i := 0; i < 10; i++ {
		log.append(journalRecord{Op: opCanceled, ID: fmt.Sprintf("job-%06d", i+1)})
	}
	for _, from := range []uint64{1, 12} {
		if lines, first, next, _ := log.fetch(from, 512); lines != nil || first != 7 || next != 11 {
			t.Fatalf("fetch(%d) outside the window: %d lines, first %d, next %d; want none, 7, 11", from, len(lines), first, next)
		}
	}
	for from := uint64(7); from < 11; from++ {
		for _, max := range []int{1, 2, 3, 512} {
			lines, _, _, _ := log.fetch(from, max)
			if want := min(int(11-from), max); len(lines) != want {
				t.Fatalf("fetch(%d, %d): %d lines, want %d", from, max, len(lines), want)
			}
			for k, line := range lines {
				rec, err := parseFrame(line)
				if err != nil || rec.Seq != from+uint64(k) || rec.ID != fmt.Sprintf("job-%06d", rec.Seq) {
					t.Fatalf("fetch(%d, %d)[%d] = seq %d id %s err %v", from, max, k, rec.Seq, rec.ID, err)
				}
			}
		}
	}
	if bad := log.verifyAll(); bad != 0 {
		t.Fatalf("verifyAll: %d bad lines in an untouched window", bad)
	}
}

// TestReplicationPartialBatchLag: a follower that applies only part of
// the primary's log reports the remainder as lag, and a mid-stream hole
// is refused.
func TestReplicationPartialBatchLag(t *testing.T) {
	_, primaryTS := newTestServer(t, Config{Workers: 2})
	for seed := 1; seed <= 2; seed++ {
		_, sr := postJob(t, primaryTS, fmt.Sprintf(`{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":%d}`, seed))
		waitDone(t, primaryTS, sr.Jobs[0].ID)
	}

	hdr, full, fullLines := decodeBatch(t, fetchBatch(t, primaryTS, 1, ""))
	if len(full) < 3 {
		t.Fatalf("need >=3 records, got %d", len(full))
	}
	one := fetchBatch(t, primaryTS, 1, "&max=1")
	if _, recs, _ := decodeBatch(t, one); len(recs) != 1 {
		t.Fatalf("max=1 returned %d records", len(recs))
	}

	follower, _ := newTestServer(t, Config{Workers: 1, Following: true})
	if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(one)); err != nil {
		t.Fatal(err)
	}
	wantLag := int64(len(full) - 1)
	if lag := follower.ReplicationLag(); lag != wantLag {
		t.Fatalf("lag = %d, want %d", lag, wantLag)
	}
	h := follower.Health()
	if h.ReplicaLagRecords != wantLag {
		t.Fatalf("health lag = %d, want %d", h.ReplicaLagRecords, wantLag)
	}

	// Skipping ahead (a hole in the stream) is a gap, not silently applied.
	gap := batchBody(t, hdr.First, hdr.Seq, fullLines[len(fullLines)-1:])
	if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(gap)); !errors.Is(err, ErrReplGap) {
		t.Fatalf("mid-stream hole applied: %v", err)
	}
}

// syncCountingFS counts fsyncs on every file it opens.
type syncCountingFS struct {
	FS
	syncs atomic.Int64
}

type syncCountingFile struct {
	File
	fs *syncCountingFS
}

func (f syncCountingFile) Sync() error { f.fs.syncs.Add(1); return f.File.Sync() }

func (c *syncCountingFS) wrap(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return syncCountingFile{f, c}, nil
}

func (c *syncCountingFS) Create(name string) (File, error) { return c.wrap(c.FS.Create(name)) }
func (c *syncCountingFS) Append(name string) (File, error) { return c.wrap(c.FS.Append(name)) }

// TestFollowerBatchOneSync: a journaling follower appends a streamed
// batch to its journal verbatim — one write and one fsync for the whole
// batch, not one per record — and the lines land with the primary's
// sequence numbers.
func TestFollowerBatchOneSync(t *testing.T) {
	_, primaryTS := newTestServer(t, Config{Workers: 2})
	for seed := 1; seed <= 3; seed++ {
		_, sr := postJob(t, primaryTS, fmt.Sprintf(`{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":%d}`, seed))
		waitDone(t, primaryTS, sr.Jobs[0].ID)
	}
	body := fetchBatch(t, primaryTS, 1, "")
	_, recs, _ := decodeBatch(t, body)
	if len(recs) != 6 {
		t.Fatalf("primary logged %d records for 3 executed cells, want 6 (submitted + done each)", len(recs))
	}

	fsys := &syncCountingFS{FS: OSFS{}}
	path := filepath.Join(t.TempDir(), "journal.wal")
	follower, _ := newTestServer(t, Config{Workers: 1, Following: true, JournalPath: path, FS: fsys})
	before := fsys.syncs.Load()
	if n, err := follower.ApplyReplicatedBatch(bytes.NewReader(body)); err != nil || n != len(recs) {
		t.Fatalf("apply: %d records, err %v", n, err)
	}
	if got := fsys.syncs.Load() - before; got != 1 {
		t.Fatalf("a batch of %d records cost %d fsyncs, want 1", len(recs), got)
	}
	if got := follower.log.records(); got != uint64(len(recs)) {
		t.Fatalf("journal records = %d, want %d", got, len(recs))
	}
	onDisk, _, _, err := readRecords(OSFS{}, path, false)
	if err != nil {
		t.Fatal(err)
	}
	onDisk = onDisk[len(onDisk)-len(recs):]
	for i, rec := range onDisk {
		if rec.Seq != recs[i].Seq || rec.Op != recs[i].Op {
			t.Fatalf("journal record %d = seq %d %s, want seq %d %s", i, rec.Seq, rec.Op, recs[i].Seq, recs[i].Op)
		}
	}
}

// TestReplicationFollowerAheadResyncs: a primary restarted on the same
// paths carries on its log sequence and job IDs, so its follower keeps
// streaming and holds the new job under its own key; and a primary that
// restarted behind its follower (its log lost) sends the follower to a
// snapshot rather than feeding it empty batches.
func TestReplicationFollowerAheadResyncs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	cfg := Config{Workers: 2, SnapshotPath: filepath.Join(dir, "cache.snap"), JournalPath: filepath.Join(dir, "journal.wal")}
	cell := func(seed int) string {
		return fmt.Sprintf(`{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":%d}`, seed)
	}

	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(p1.Handler())
	for seed := 1; seed <= 2; seed++ {
		_, sr := postJob(t, ts1, cell(seed))
		waitDone(t, ts1, sr.Jobs[0].ID)
	}
	follower, _ := newTestServer(t, Config{Workers: 1, Following: true})
	if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(fetchBatch(t, ts1, 1, ""))); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := p1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Clean restart on the same paths.
	p2, ts2 := newTestServer(t, cfg)
	if p2.ReplNextApply() != follower.ReplNextApply() {
		t.Fatalf("restarted primary's log resumed at %d, its follower expects %d", p2.ReplNextApply(), follower.ReplNextApply())
	}
	_, sr := postJob(t, ts2, cell(3))
	fresh := waitDone(t, ts2, sr.Jobs[0].ID)
	if _, ok := follower.Lookup(fresh.ID); ok {
		t.Fatalf("restarted primary reissued %s, which the follower already holds", fresh.ID)
	}
	if n, err := follower.ApplyReplicatedBatch(bytes.NewReader(fetchBatch(t, ts2, follower.ReplNextApply(), ""))); err != nil || n == 0 {
		t.Fatalf("follower did not stream from the restarted primary: %d records, err %v", n, err)
	}
	if v, ok := follower.Lookup(fresh.ID); !ok || v.Key != fresh.Key || v.State != JobDone {
		t.Fatalf("follower's %s = %+v, want the new job (key %s) done", fresh.ID, v, fresh.Key)
	}

	// A primary that lost its log restarts behind the follower.
	p3, ts3 := newTestServer(t, Config{Workers: 2})
	_, sr = postJob(t, ts3, cell(4))
	lost := waitDone(t, ts3, sr.Jobs[0].ID)
	body := fetchBatch(t, ts3, follower.ReplNextApply(), "")
	if hdr, _, _ := decodeBatch(t, body); !hdr.SnapshotNeeded {
		t.Fatalf("follower ahead of its primary (from %d, primary next %d) was not sent to the snapshot", follower.ReplNextApply(), hdr.Seq)
	}
	if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(body)); !errors.Is(err, ErrReplGap) {
		t.Fatalf("ahead-of-primary batch: %v, want ErrReplGap", err)
	}
	if _, err := follower.ApplyReplicatedSnapshot(bytes.NewReader(fetchSnapshot(t, ts3))); err != nil {
		t.Fatal(err)
	}
	if follower.ReplNextApply() != p3.ReplNextApply() || follower.ReplicationLag() != 0 {
		t.Fatalf("re-synced follower at %d (lag %d), primary at %d", follower.ReplNextApply(), follower.ReplicationLag(), p3.ReplNextApply())
	}
	if v, ok := follower.Lookup(lost.ID); ok && v.Key != lost.Key {
		t.Fatalf("re-synced follower still serves the old timeline's %s (key %s, want %s)", lost.ID, v.Key, lost.Key)
	}
	if _, ok := follower.cache.peek(lost.Key); !ok {
		t.Fatal("re-synced follower does not hold the new primary's result")
	}
}

// renameFailFS fails every rename onto target while armed: a checkpoint
// whose commit fails after its segment was written.
type renameFailFS struct {
	FS
	target string
	armed  *atomic.Bool
}

func (f renameFailFS) Rename(oldname, newname string) error {
	if f.armed.Load() && newname == f.target {
		return errors.New("renameFailFS: injected rename failure")
	}
	return f.FS.Rename(oldname, newname)
}

// TestBootstrappedFollowerSurvivesRestart: a journaling follower that
// re-synced from a snapshot — here one that was ahead of its primary, its
// journal full of the old timeline's records — crashes after applying
// one more batch. Restarted on the same paths it holds the bootstrapped
// entry and pending job, the batch's job, and the primary's sequence;
// nothing of the timeline the snapshot replaced comes back. When the
// bootstrap's checkpoint fails to commit (the rename onto the journal
// fails), the restart holds exactly one timeline all the same: the old
// one or the bootstrapped one, never a mix.
func TestBootstrappedFollowerSurvivesRestart(t *testing.T) {
	primary, primaryTS := newTestServer(t, Config{Workers: 1})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	settled := waitDone(t, primaryTS, sr.Jobs[0].ID)
	entry, ok := primary.cache.peek(settled.Key)
	if !ok {
		t.Fatal("primary cache has no entry for its settled job")
	}
	_, cell2 := testCell(t, 2)
	_, cell3 := testCell(t, 3)

	for _, tc := range []struct {
		name                     string
		withSnapshot, failRename bool
	}{
		{"snapshot=false", false, false},
		{"snapshot=true", true, false},
		{"snapshot=true,journal-rename-fails", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Workers: 1, Following: true, JournalPath: filepath.Join(dir, "journal.wal")}
			if tc.withSnapshot {
				cfg.SnapshotPath = filepath.Join(dir, "cache.snap")
			}
			var armed atomic.Bool
			failing := cfg
			failing.FS = renameFailFS{FS: OSFS{}, target: cfg.JournalPath, armed: &armed}
			follower, err := New(failing)
			if err != nil {
				t.Fatal(err)
			}

			// The old timeline: 20 records the new primary never wrote.
			old := newRecordLog(64)
			for i := 0; i < 20; i++ {
				old.append(journalRecord{Op: opSubmitted, ID: fmt.Sprintf("job-%06d", 50+i), Key: Key(cellSpec(t, cell2)), Cell: &cell2})
			}
			lines, first, next, _ := old.fetch(1, 100)
			if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(batchBody(t, first, next, lines))); err != nil {
				t.Fatal(err)
			}

			// Bootstrap from a segment at seq 5: one settled entry, one
			// pending job.
			seg := bytes.Join([][]byte{
				frameLine(t, journalRecord{Op: opCheckpoint, Seq: 5, NextID: 3, KeySchema: keySchemaVersion}),
				frameLine(t, journalRecord{Op: opDone, Key: entry.Key, Entry: entry}),
				frameLine(t, journalRecord{Op: opSubmitted, ID: "job-000002", Key: Key(cellSpec(t, cell3)), Cell: &cell3}),
				frameLine(t, journalRecord{Op: opEnd, Count: 2}),
			}, nil)
			armed.Store(tc.failRename)
			if _, err := follower.ApplyReplicatedSnapshot(bytes.NewReader(seg)); err != nil {
				t.Fatal(err)
			}
			armed.Store(false)
			// One streamed batch on top of it, then a crash.
			tail := newRecordLog(64)
			tail.reset(5)
			tail.append(journalRecord{Op: opSubmitted, ID: "job-000003", Key: Key(cellSpec(t, cell2)), Cell: &cell2})
			lines, first, next, _ = tail.fetch(5, 100)
			if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(batchBody(t, first, next, lines))); err != nil {
				t.Fatal(err)
			}
			follower.Kill()

			restarted, _ := newTestServer(t, cfg)
			if tc.failRename {
				var ids []string
				for _, v := range restarted.Jobs("") {
					ids = append(ids, v.ID)
				}
				got := fmt.Sprintf("next=%d jobs=%v keys=%v", restarted.ReplNextApply(), ids, restarted.cache.Keys())
				oldIDs := make([]string, 20)
				for i := range oldIDs {
					oldIDs[i] = fmt.Sprintf("job-%06d", 50+i)
				}
				oldTimeline := fmt.Sprintf("next=21 jobs=%v keys=[]", oldIDs)
				bootstrapped := fmt.Sprintf("next=5 jobs=[job-000002] keys=[%s]", entry.Key)
				if got != oldTimeline && got != bootstrapped {
					t.Fatalf("restart after a failed checkpoint holds %s; want one timeline:\n  %s\nor\n  %s", got, oldTimeline, bootstrapped)
				}
				return
			}
			if got := restarted.ReplNextApply(); got != 6 {
				t.Fatalf("restarted follower resumes at seq %d, want 6", got)
			}
			if _, ok := restarted.cache.peek(entry.Key); !ok {
				t.Fatal("restarted follower lost the bootstrapped cache entry")
			}
			for _, id := range []string{"job-000002", "job-000003"} {
				if v, ok := restarted.Lookup(id); !ok || v.State != JobQueued {
					t.Fatalf("restarted follower's %s = %+v (present %v), want pending", id, v, ok)
				}
			}
			if v, ok := restarted.Lookup("job-000050"); ok {
				t.Fatalf("restarted follower resurrected the replaced timeline's job-000050: %+v", v)
			}
		})
	}
}

// TestFollowerRejectsSubmissions: a warm standby refuses work with the
// standard retryable 503 envelope and advertises its role on every
// response, so a pool client fails over without guesswork.
func TestFollowerRejectsSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Following: true})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower submission: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got := resp.Header.Get("X-ASF-Role"); got != "follower" {
		t.Fatalf("X-ASF-Role = %q, want follower", got)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("503 body not the structured envelope: %v %+v", err, er)
	}
}

// TestPromotionDisposesPendingCorrectly is the promotion contract in one
// scene: settled keys complete from replicated bytes (zero duplicate
// cycles), deadline-expired pending jobs are shed without ever
// executing, and live pending jobs re-enqueue and run to completion.
func TestPromotionDisposesPendingCorrectly(t *testing.T) {
	// Build the replicated history by hand via a primary-side log, so the
	// lines carry real CRCs.
	spec1 := harness.CellSpec{
		Workload:  "kmeans",
		Detection: asfsim.DetectSubBlock4,
		Scale:     workloads.ScaleTiny,
		Seed:      1,
	}.Normalize()
	cell1 := encodeCell(spec1)
	_, cell2 := testCell(t, 2)
	_, cell3 := testCell(t, 3)
	key1 := Key(spec1)

	// Settle key1 on a real primary to get genuine result bytes + digest.
	primary, primaryTS := newTestServer(t, Config{Workers: 2})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	if sr.Jobs[0].Key != key1 {
		t.Fatalf("submitted key %s != locally derived %s", sr.Jobs[0].Key, key1)
	}
	waitDone(t, primaryTS, sr.Jobs[0].ID)
	entry, ok := primary.cache.peek(key1)
	if !ok {
		t.Fatalf("primary cache has no entry for %s", key1)
	}

	log := newRecordLog(64)
	// job-000100: submitted then done — terminal, its entry settles key1.
	log.append(journalRecord{Op: opSubmitted, ID: "job-000100", Key: key1, Cell: &cell1})
	log.append(journalRecord{Op: opDone, ID: "job-000100", Key: key1, Entry: entry})
	// job-000101: pending on the already-settled key1 -> fromCache.
	log.append(journalRecord{Op: opSubmitted, ID: "job-000101", Key: key1, Cell: &cell1})
	// job-000102: pending with a long-expired propagated deadline -> shed.
	log.append(journalRecord{Op: opSubmitted, ID: "job-000102", Key: Key(cellSpec(t, cell2)), Cell: &cell2,
		Deadline: "2020-01-01T00:00:00Z"})
	// job-000103: pending, live -> re-enqueued and executed.
	log.append(journalRecord{Op: opSubmitted, ID: "job-000103", Key: Key(cellSpec(t, cell3)), Cell: &cell3})

	lines, first, next, _ := log.fetch(1, 100)
	follower, followerTS := newTestServer(t, Config{Workers: 2, Following: true})
	if _, err := follower.ApplyReplicatedBatch(bytes.NewReader(batchBody(t, first, next, lines))); err != nil {
		t.Fatal(err)
	}

	st, err := follower.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if st.FromCache != 1 || st.Shed != 1 || st.Reenqueued != 1 {
		t.Fatalf("promote stats = %+v, want 1/1/1", st)
	}
	if follower.Following() {
		t.Fatal("still following after Promote")
	}

	// fromCache job: done, byte-identical to the primary's result, and
	// the promoted node simulated nothing for it.
	code, v := getJob(t, followerTS, "job-000101")
	if code != http.StatusOK || v.State != JobDone || !v.CacheHit {
		t.Fatalf("fromCache job: %d %s cacheHit=%v", code, v.State, v.CacheHit)
	}
	if !bytes.Equal(v.Result, entry.Result) {
		t.Fatal("fromCache result differs from replicated bytes")
	}

	// Shed job: canceled without execution (satellite: deadline-expired
	// replicated jobs must be shed, not run).
	_, v = getJob(t, followerTS, "job-000102")
	if v.State != JobCanceled {
		t.Fatalf("expired pending job ended %s, want canceled", v.State)
	}

	// Re-enqueued job runs to completion on the promoted node.
	v = waitDone(t, followerTS, "job-000103")
	if v.State != JobDone {
		t.Fatalf("re-enqueued job ended %s (%s)", v.State, v.Error)
	}

	m := getMetrics(t, followerTS)
	if m.Promotions != 1 || m.PromotedFromCache != 1 || m.PromotedShed != 1 || m.PromotedReenqueued != 1 {
		t.Fatalf("promotion counters: %+v", m)
	}
	if m.ShedExpired == 0 {
		t.Fatal("shed job not counted as shedExpired")
	}
	// Exactly one execution: the re-enqueued job. The settled key cost
	// zero additional cycles.
	if m.RunsExecuted != 1 {
		t.Fatalf("promoted node executed %d runs, want 1", m.RunsExecuted)
	}
	if m.Role != "primary" {
		t.Fatalf("promoted node role = %q", m.Role)
	}

	// The promoted node accepts fresh submissions, and its IDs do not
	// collide with replicated ones.
	_, sr2 := postJob(t, followerTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":9}`)
	if len(sr2.Jobs) != 1 {
		t.Fatalf("post-promotion submission rejected: %+v", sr2)
	}
	if sr2.Jobs[0].ID <= "job-000103" {
		t.Fatalf("post-promotion ID %s collides with replicated range", sr2.Jobs[0].ID)
	}
	waitDone(t, followerTS, sr2.Jobs[0].ID)

	// Promoting twice — or promoting a primary — is a 409.
	resp, err := http.Post(followerTS.URL+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second promote: status %d, want 409", resp.StatusCode)
	}
}

func cellSpec(t *testing.T, cell canonicalCell) harness.CellSpec {
	t.Helper()
	s, err := cell.spec()
	if err != nil {
		t.Fatal(err)
	}
	return s.Normalize()
}

// TestPromoteViaHTTP exercises the promote endpoint itself.
func TestPromoteViaHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Following: true})
	resp, err := http.Post(ts.URL+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	var st PromoteStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// An idle standby has nothing pending.
	if st.FromCache != 0 || st.Reenqueued != 0 || st.Shed != 0 {
		t.Fatalf("idle promote stats: %+v", st)
	}
	// Now a primary: accepts work.
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	if len(sr.Jobs) != 1 {
		t.Fatalf("promoted daemon rejected submission: %+v", sr)
	}
	waitDone(t, ts, sr.Jobs[0].ID)
}

// TestReplicationLongPollWakes: a stream request parked with ?wait= is
// woken by the next replicated record rather than sleeping the full
// window.
func TestReplicationLongPollWakes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	got := make(chan []byte, 1)
	go func() {
		// Park for up to 20s; the submission below must wake it long before.
		got <- fetchBatch(t, ts, 1, "&wait=20000")
	}()
	time.Sleep(50 * time.Millisecond)
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	waitDone(t, ts, sr.Jobs[0].ID)
	select {
	case body := <-got:
		if _, recs, _ := decodeBatch(t, body); len(recs) == 0 {
			t.Fatal("long poll woke with no records")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll never woke")
	}
}
