package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// fetchBatch pulls one replication batch from a primary's stream
// endpoint, the way a follower's sync loop does.
func fetchBatch(t *testing.T, ts *httptest.Server, from uint64, extra string) ReplBatch {
	t.Helper()
	url := ts.URL + "/v1/replication/stream?from=" + uitoa(from) + extra
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	var batch ReplBatch
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	return batch
}

func uitoa(n uint64) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func fetchSnapshot(t *testing.T, ts *httptest.Server) *ReplSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/replication/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap ReplSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// TestReplicationStreamAndApply is the warm-standby happy path, run
// through the real HTTP surface: a primary executes a job, a follower
// pulls the frame batch off the wire, verifies every CRC and content
// digest, and ends up with the job settled and the result bytes
// byte-identical — without simulating a single cycle itself.
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

	batch := fetchBatch(t, primaryTS, 1, "")
	if len(batch.Frames) == 0 || batch.SnapshotNeeded {
		t.Fatalf("expected frames, got %+v", batch)
	}
	for _, f := range batch.Frames {
		if !f.verify() {
			t.Fatalf("frame %d failed CRC after HTTP round trip", f.Seq)
		}
	}

	follower, followerTS := newTestServer(t, Config{Workers: 2, Following: true})
	if !follower.Following() {
		t.Fatal("follower does not report Following")
	}
	applied, err := follower.ApplyReplicatedBatch(batch)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if applied != len(batch.Frames) {
		t.Fatalf("applied %d of %d frames", applied, len(batch.Frames))
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
	again, err := follower.ApplyReplicatedBatch(batch)
	if err != nil || again != 0 {
		t.Fatalf("re-apply: applied=%d err=%v", again, err)
	}

	h := follower.Health()
	if h.Role != "follower" || h.Status != "following" {
		t.Fatalf("follower health = %+v", h)
	}
}

// TestReplicationCorruptionRefused: any flipped bit in a frame — in the
// record or in the riding cache entry — is detected before anything is
// applied, counted, and the whole batch refused.
func TestReplicationCorruptionRefused(t *testing.T) {
	_, primaryTS := newTestServer(t, Config{Workers: 2})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	waitDone(t, primaryTS, sr.Jobs[0].ID)
	batch := fetchBatch(t, primaryTS, 1, "")

	follower, _ := newTestServer(t, Config{Workers: 1, Following: true})
	before := follower.ReplNextApply()

	// CRC corruption: perturb a record field without restamping.
	bad := ReplBatch{Frames: append([]ReplFrame(nil), batch.Frames...), FirstSeq: batch.FirstSeq, NextSeq: batch.NextSeq}
	bad.Frames[0].Record.Key = bad.Frames[0].Record.Key + "x"
	if _, err := follower.ApplyReplicatedBatch(bad); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("corrupt frame applied: %v", err)
	}
	if follower.metrics.ReplCorruptFrames() == 0 {
		t.Fatal("corrupt frame not counted")
	}

	// Digest corruption: flip a byte in an entry's result bytes and
	// restamp the frame CRC, as a lying proxy that re-frames would.
	var withEntry int = -1
	for i, f := range batch.Frames {
		if f.Entry != nil {
			withEntry = i
			break
		}
	}
	if withEntry < 0 {
		t.Fatal("no frame carries a cache entry")
	}
	bad2 := ReplBatch{Frames: append([]ReplFrame(nil), batch.Frames...), FirstSeq: batch.FirstSeq, NextSeq: batch.NextSeq}
	e := *bad2.Frames[withEntry].Entry
	e.Result = append([]byte(nil), e.Result...)
	e.Result[len(e.Result)/2] ^= 0x01
	bad2.Frames[withEntry].Entry = &e
	bad2.Frames[withEntry].CRC = bad2.Frames[withEntry].computeCRC()
	if _, err := follower.ApplyReplicatedBatch(bad2); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("digest-mismatched entry applied: %v", err)
	}
	if follower.metrics.ReplDigestMismatches() == 0 {
		t.Fatal("digest mismatch not counted")
	}

	// Nothing was applied by either refusal, and the poisoned result
	// never reached the follower's cache.
	if follower.ReplNextApply() != before {
		t.Fatal("refused batches advanced the apply cursor")
	}
	if _, ok := follower.cache.peek(batch.Frames[withEntry].Record.Key); ok {
		t.Fatal("corrupt entry reached the follower cache")
	}
}

// TestReplicationGapAndSnapshotResync: a follower whose cursor has been
// trimmed out of the primary's bounded log is told to re-sync, and the
// snapshot checkpoint carries everything it needs — digest-verified.
func TestReplicationGapAndSnapshotResync(t *testing.T) {
	// A tiny log window forces trimming almost immediately.
	primary, primaryTS := newTestServer(t, Config{Workers: 2, ReplLogCapacity: 2})
	for i := 0; i < 3; i++ {
		_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":`+uitoa(uint64(i+1))+`}`)
		waitDone(t, primaryTS, sr.Jobs[0].ID)
	}
	if primary.repl.nextSeq() <= 3 {
		t.Fatalf("expected >2 replicated records, nextSeq=%d", primary.repl.nextSeq())
	}

	batch := fetchBatch(t, primaryTS, 1, "")
	if !batch.SnapshotNeeded {
		t.Fatalf("trimmed log did not demand a snapshot: %+v", batch)
	}

	follower, _ := newTestServer(t, Config{Workers: 1, Following: true})
	if _, err := follower.ApplyReplicatedBatch(batch); !errors.Is(err, ErrReplGap) {
		t.Fatalf("SnapshotNeeded batch did not surface ErrReplGap: %v", err)
	}
	// The gap still taught the follower how far behind it is.
	if follower.ReplicationLag() == 0 {
		t.Fatal("lag not recorded from the gap response")
	}

	snap := fetchSnapshot(t, primaryTS)
	if !snap.verify() {
		t.Fatal("snapshot failed CRC after HTTP round trip")
	}
	applied, err := follower.ApplyReplicatedSnapshot(snap)
	if err != nil {
		t.Fatalf("apply snapshot: %v", err)
	}
	if applied != len(snap.Entries) || applied == 0 {
		t.Fatalf("applied %d of %d snapshot entries", applied, len(snap.Entries))
	}
	if follower.ReplNextApply() != snap.Seq {
		t.Fatalf("resume cursor = %d, want %d", follower.ReplNextApply(), snap.Seq)
	}

	// Streaming resumes cleanly from the snapshot's cursor.
	tail := fetchBatch(t, primaryTS, follower.ReplNextApply(), "")
	if tail.SnapshotNeeded {
		t.Fatal("post-snapshot cursor is still out of window")
	}
	if _, err := follower.ApplyReplicatedBatch(tail); err != nil {
		t.Fatalf("apply tail: %v", err)
	}
	if follower.ReplicationLag() != 0 {
		t.Fatalf("lag after re-sync = %d", follower.ReplicationLag())
	}

	// A tampered snapshot is refused outright.
	badSnap := fetchSnapshot(t, primaryTS)
	badSnap.Entries[0].Result = append([]byte(nil), badSnap.Entries[0].Result...)
	badSnap.Entries[0].Result[0] ^= 0x01
	badSnap.CRC = badSnap.computeCRC()
	if _, err := follower.ApplyReplicatedSnapshot(badSnap); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("tampered snapshot applied: %v", err)
	}
}

// TestReplLogRingWrap: once the window is full the log overwrites its
// oldest frame in place. Fetches that straddle the ring's wrap still
// return consecutive, CRC-valid frames cut to max, and a cursor behind
// the window gets nothing (snapshot re-sync).
func TestReplLogRingWrap(t *testing.T) {
	log := newReplLog(4)
	for i := 0; i < 10; i++ {
		log.append(journalRecord{Op: opStarted, ID: fmt.Sprintf("job-%06d", i+1)}, nil)
	}
	if frames, first, next, _ := log.fetch(1, 512); frames != nil || first != 7 || next != 11 {
		t.Fatalf("fetch behind the window: %d frames, first %d, next %d; want none, 7, 11", len(frames), first, next)
	}
	for from := uint64(7); from < 11; from++ {
		for _, max := range []int{1, 2, 3, 512} {
			frames, _, _, _ := log.fetch(from, max)
			if want := min(int(11-from), max); len(frames) != want {
				t.Fatalf("fetch(%d, %d): %d frames, want %d", from, max, len(frames), want)
			}
			for k, f := range frames {
				if f.Seq != from+uint64(k) || f.Record.ID != fmt.Sprintf("job-%06d", f.Seq) || !f.verify() {
					t.Fatalf("fetch(%d, %d)[%d] = seq %d id %s verify %v", from, max, k, f.Seq, f.Record.ID, f.verify())
				}
			}
		}
	}
	if bad := log.verifyAll(); bad != 0 {
		t.Fatalf("verifyAll: %d bad frames in an untouched window", bad)
	}
}

// TestReplicationPartialBatchLag: a follower that applies only part of
// the primary's log reports the remainder as lag, and a mid-stream gap
// is refused.
func TestReplicationPartialBatchLag(t *testing.T) {
	_, primaryTS := newTestServer(t, Config{Workers: 2})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	waitDone(t, primaryTS, sr.Jobs[0].ID)

	full := fetchBatch(t, primaryTS, 1, "")
	if len(full.Frames) < 2 {
		t.Fatalf("need >=2 frames, got %d", len(full.Frames))
	}
	one := fetchBatch(t, primaryTS, 1, "&max=1")
	if len(one.Frames) != 1 {
		t.Fatalf("max=1 returned %d frames", len(one.Frames))
	}

	follower, _ := newTestServer(t, Config{Workers: 1, Following: true})
	if _, err := follower.ApplyReplicatedBatch(one); err != nil {
		t.Fatal(err)
	}
	wantLag := int64(len(full.Frames) - 1)
	if lag := follower.ReplicationLag(); lag != wantLag {
		t.Fatalf("lag = %d, want %d", lag, wantLag)
	}
	h := follower.Health()
	if h.ReplicaLagRecords != wantLag {
		t.Fatalf("health lag = %d, want %d", h.ReplicaLagRecords, wantLag)
	}

	// Skipping ahead (a hole in the stream) is a gap, not silently applied.
	gap := ReplBatch{Frames: full.Frames[len(full.Frames)-1:], FirstSeq: full.FirstSeq, NextSeq: full.NextSeq}
	if _, err := follower.ApplyReplicatedBatch(gap); !errors.Is(err, ErrReplGap) {
		t.Fatalf("mid-stream hole applied: %v", err)
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
	// frames carry real CRCs.
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

	log := newReplLog(64)
	// job-000100: submitted then done — terminal, its entry settles key1.
	log.append(journalRecord{Op: opSubmitted, ID: "job-000100", Key: key1, Cell: &cell1}, nil)
	log.append(journalRecord{Op: opDone, ID: "job-000100", Key: key1}, entry)
	// job-000101: pending on the already-settled key1 -> fromCache.
	log.append(journalRecord{Op: opSubmitted, ID: "job-000101", Key: key1, Cell: &cell1}, nil)
	// job-000102: pending with a long-expired propagated deadline -> shed.
	log.append(journalRecord{Op: opSubmitted, ID: "job-000102", Key: Key(cellSpec(t, cell2)), Cell: &cell2,
		Deadline: "2020-01-01T00:00:00Z"}, nil)
	// job-000103: pending, live -> re-enqueued and executed.
	log.append(journalRecord{Op: opSubmitted, ID: "job-000103", Key: Key(cellSpec(t, cell3)), Cell: &cell3}, nil)

	frames, _, next, _ := log.fetch(1, 100)
	follower, followerTS := newTestServer(t, Config{Workers: 2, Following: true})
	if _, err := follower.ApplyReplicatedBatch(ReplBatch{Frames: frames, FirstSeq: 1, NextSeq: next}); err != nil {
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
	// The job endpoint re-indents the envelope, so compare compacted.
	var got, want bytes.Buffer
	if err := json.Compact(&got, v.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&want, entry.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
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
	got := make(chan ReplBatch, 1)
	go func() {
		// Park for up to 20s; the submission below must wake it long before.
		got <- fetchBatch(t, ts, 1, "&wait=20000")
	}()
	time.Sleep(50 * time.Millisecond)
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	waitDone(t, ts, sr.Jobs[0].ID)
	select {
	case batch := <-got:
		if len(batch.Frames) == 0 {
			t.Fatal("long poll woke with no frames")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll never woke")
	}
}
