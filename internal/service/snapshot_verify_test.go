package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tamperSnapshot rewrites the done record for key in the segment at
// path: its result bytes are changed and the frame CRC is re-sealed over
// the damaged payload, so only the content digest can tell.
func tamperSnapshot(t *testing.T, path, key string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	tampered := false
	for i, line := range lines {
		if bytes.Contains(line, []byte(`"key":"`+key+`"`)) && bytes.Contains(line, []byte(`"op":"done"`)) {
			lines[i] = reseal(t, line, `"cycles"`, `"cycLes"`)
			tampered = true
		}
	}
	if !tampered {
		t.Fatalf("no done record for %s to tamper with", key)
	}
	out := bytes.Join(lines, nil)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotDigestVerification: every snapshot record is verified on
// load, its entry's content digest included. A result silently
// corrupted before it was framed (the CRC checks out) fails its digest
// re-hash, is quarantined (preserved for post-mortem, counted, visible
// on /metrics), and is never served — the corrupted cell recomputes
// instead. Healthy entries load normally. With the scrubber armed the
// entry is loaded for the scrubber to quarantine and repair instead,
// and the serve-path guard keeps it from ever being served.
func TestSnapshotDigestVerification(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "cache.snap")

	// First incarnation: settle two cells and persist the snapshot.
	s1, ts1 := newTestServer(t, Config{Workers: 2, SnapshotPath: snapPath})
	_, sr1 := postJob(t, ts1, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	good := waitDone(t, ts1, sr1.Jobs[0].ID)
	_, sr2 := postJob(t, ts1, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":2}`)
	victim := waitDone(t, ts1, sr2.Jobs[0].ID)
	if err := s1.Persist(); err != nil {
		t.Fatal(err)
	}
	tampered := tamperSnapshot(t, snapPath, victim.Key)

	// The scrubber-armed boot first, on its own copy of the file.
	armedPath := filepath.Join(dir, "armed.snap")
	if err := os.WriteFile(armedPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	armed, err := New(Config{Workers: 1, SnapshotPath: armedPath, ScrubInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if got := armed.Recovery().SnapshotQuarantined; got != 0 {
		t.Fatalf("scrubber-armed boot quarantined %d records itself", got)
	}
	if rep := armed.ScrubPass(); rep.Corruptions != 1 || rep.Repairs != 1 {
		t.Fatalf("scrub pass after an armed boot: %+v, want 1 corruption repaired", rep)
	}
	armed.Kill()

	// Default boot: the record is quarantined on load.
	s2, ts2 := newTestServer(t, Config{Workers: 2, SnapshotPath: snapPath})
	if got := s2.Recovery().SnapshotQuarantined; got != 1 {
		t.Fatalf("SnapshotQuarantined = %d, want 1", got)
	}
	m := getMetrics(t, ts2)
	if m.SnapshotEntryQuarantines != 1 {
		t.Fatalf("snapshotEntryQuarantines = %d, want 1", m.SnapshotEntryQuarantines)
	}
	q, err := os.ReadFile(snapPath + ".quarantine")
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !bytes.Contains(q, []byte(victim.Key)) {
		t.Fatal("quarantine file does not record the tampered entry")
	}

	// The healthy entry is served from the reloaded cache...
	_, hit := postJob(t, ts2, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	hitView := waitDone(t, ts2, hit.Jobs[0].ID)
	if !hitView.CacheHit {
		t.Fatal("healthy snapshot entry was not served from cache")
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, hitView.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, good.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("healthy entry's bytes changed across reload")
	}

	// ...while the tampered cell recomputes rather than serving the
	// corrupted bytes, and determinism makes the recomputation match the
	// original.
	_, re := postJob(t, ts2, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":2}`)
	reView := waitDone(t, ts2, re.Jobs[0].ID)
	if reView.CacheHit {
		t.Fatal("tampered entry was served from cache")
	}
	a.Reset()
	b.Reset()
	if err := json.Compact(&a, reView.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, victim.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("recomputed result differs from the original computation")
	}
}
