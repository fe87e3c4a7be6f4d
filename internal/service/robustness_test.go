package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/workloads"
)

func tinySpec(seed uint64) harness.CellSpec {
	return harness.CellSpec{
		Workload: "kmeans", Detection: asfsim.DetectBaseline,
		Scale: workloads.ScaleTiny, Seed: seed,
	}
}

// TestJobsListAndFilter: GET /v1/jobs lists retained jobs oldest-first
// with results omitted, ?state= filters, and a bogus state is a 400.
func TestJobsListAndFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		_, sr := postJob(t, ts, fmt.Sprintf(
			`{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":%d}`, seed))
		if len(sr.Jobs) != 1 {
			t.Fatal("submission rejected")
		}
		ids = append(ids, sr.Jobs[0].ID)
		waitDone(t, ts, sr.Jobs[0].ID)
	}

	list := func(query string) (int, JobListResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var lr JobListResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, lr
	}

	code, lr := list("")
	if code != http.StatusOK || len(lr.Jobs) != 3 {
		t.Fatalf("list: status %d, %d jobs (want 200, 3)", code, len(lr.Jobs))
	}
	for i, v := range lr.Jobs {
		if v.ID != ids[i] {
			t.Fatalf("listing out of order: slot %d is %s, want %s", i, v.ID, ids[i])
		}
		if v.Result != nil {
			t.Fatalf("listing leaked the result payload for %s", v.ID)
		}
	}

	if code, lr := list("?state=done"); code != http.StatusOK || len(lr.Jobs) != 3 {
		t.Fatalf("?state=done: status %d, %d jobs", code, len(lr.Jobs))
	}
	if code, lr := list("?state=queued"); code != http.StatusOK || len(lr.Jobs) != 0 {
		t.Fatalf("?state=queued: status %d, %d jobs", code, len(lr.Jobs))
	}
	if code, _ := list("?state=bogus"); code != http.StatusBadRequest {
		t.Fatalf("?state=bogus answered %d, want 400", code)
	}
}

// TestBreakerPoisonsFailingKey: a cell that keeps panicking trips the
// per-content-address breaker after the configured failure streak, and
// further submissions of the same cell are refused with 422 — while a
// different cell stays accepted.
func TestBreakerPoisonsFailingKey(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:          1,
		BreakerThreshold: 2,
		BeforeRun: func(spec harness.CellSpec) {
			if spec.Seed == 7 {
				panic("injected: deterministic cell failure")
			}
		},
	})

	body := `{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":7}`
	for i := 0; i < 2; i++ {
		_, sr := postJob(t, ts, body)
		if len(sr.Jobs) != 1 {
			t.Fatalf("submission %d rejected", i)
		}
		view := waitDone(t, ts, sr.Jobs[0].ID)
		if view.State != JobFailed || view.ErrorKind != "panic" {
			t.Fatalf("submission %d ended %s kind %q, want failed/panic", i, view.State, view.ErrorKind)
		}
	}

	resp, sr := postJob(t, ts, body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("poisoned cell answered %d, want 422", resp.StatusCode)
	}
	if sr.Error == "" {
		t.Fatal("422 without an error message")
	}
	if _, err := s.Submit(tinySpec(7)); !errors.Is(err, ErrKeyPoisoned) {
		t.Fatalf("direct submit of poisoned cell: %v, want ErrKeyPoisoned", err)
	}

	// A healthy cell is unaffected.
	_, ok := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":1}`)
	if len(ok.Jobs) != 1 {
		t.Fatal("healthy cell rejected alongside the poisoned one")
	}
	if v := waitDone(t, ts, ok.Jobs[0].ID); v.State != JobDone {
		t.Fatalf("healthy cell ended %s", v.State)
	}

	snap := getMetrics(t, ts)
	if snap.WorkerPanics != 2 || snap.BreakerTripped != 1 || snap.BreakerRejected < 2 {
		t.Fatalf("breaker metrics: panics=%d tripped=%d rejected=%d",
			snap.WorkerPanics, snap.BreakerTripped, snap.BreakerRejected)
	}
}

// TestCancelEndpoint: POST /v1/jobs/{id}/cancel aborts a queued job,
// 404s on unknown IDs, and is a harmless no-op on finished jobs.
func TestCancelEndpoint(t *testing.T) {
	gate := make(chan struct{})
	var gated atomic.Bool
	_, ts := newTestServer(t, Config{
		Workers: 1,
		BeforeRun: func(harness.CellSpec) {
			if gated.CompareAndSwap(false, true) {
				<-gate // hold the lone worker so the next job stays queued
			}
		},
	})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()

	cancelJob := func(id string) (int, JobView) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var view JobView
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, view
	}

	_, first := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":1}`)
	_, queued := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":2}`)
	if len(first.Jobs) != 1 || len(queued.Jobs) != 1 {
		t.Fatal("submission rejected")
	}

	// Wait until the first job occupies the worker, then cancel the
	// queued one: it must go terminal without ever running.
	deadline := time.Now().Add(10 * time.Second)
	for !gated.Load() {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the gated job")
		}
		time.Sleep(time.Millisecond)
	}
	code, view := cancelJob(queued.Jobs[0].ID)
	if code != http.StatusOK || view.State != JobCanceled {
		t.Fatalf("cancel queued job: status %d state %s", code, view.State)
	}
	if view.Error == "" {
		t.Fatal("canceled job carries no error")
	}

	if code, _ := cancelJob("job-999999"); code != http.StatusNotFound {
		t.Fatalf("cancel of unknown job answered %d, want 404", code)
	}

	close(gate)
	done := waitDone(t, ts, first.Jobs[0].ID)
	if done.State != JobDone {
		t.Fatalf("gated job ended %s (%s)", done.State, done.Error)
	}
	// Cancel after completion: acknowledged, state unchanged.
	if code, v := cancelJob(first.Jobs[0].ID); code != http.StatusOK || v.State != JobDone {
		t.Fatalf("cancel of done job: status %d state %s", code, v.State)
	}
}

// flakyFS fails journal/snapshot writes on demand; it lives here (not in
// internal/chaos) because this package's tests cannot import chaos
// without a cycle.
type flakyFS struct {
	fail *atomic.Bool
}

func (f flakyFS) Create(name string) (File, error) {
	file, err := OSFS{}.Create(name)
	return flakyFile{file, f.fail}, err
}
func (f flakyFS) Open(name string) (File, error) { return OSFS{}.Open(name) }
func (f flakyFS) Append(name string) (File, error) {
	file, err := OSFS{}.Append(name)
	return flakyFile{file, f.fail}, err
}
func (f flakyFS) Rename(oldname, newname string) error {
	if f.fail.Load() {
		return errors.New("flakyFS: injected rename failure")
	}
	return OSFS{}.Rename(oldname, newname)
}
func (f flakyFS) Remove(name string) error { return OSFS{}.Remove(name) }

type flakyFile struct {
	File
	fail *atomic.Bool
}

func (f flakyFile) Write(p []byte) (int, error) {
	if f.fail.Load() {
		return 0, errors.New("flakyFile: injected write failure")
	}
	return f.File.Write(p)
}

// TestDegradedModeOnJournalFailure: a journal write failure degrades the
// daemon to memory-only operation — visible on /healthz and /metrics —
// while the job itself still runs to completion.
func TestDegradedModeOnJournalFailure(t *testing.T) {
	var fail atomic.Bool
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		Workers:     1,
		JournalPath: filepath.Join(dir, "journal.wal"),
		FS:          flakyFS{fail: &fail},
	})

	if degraded, _ := s.Degraded(); degraded {
		t.Fatal("daemon degraded before any fault")
	}
	fail.Store(true)

	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny"}`)
	if len(sr.Jobs) != 1 {
		t.Fatal("submission rejected: a journal fault must degrade, not refuse work")
	}
	view := waitDone(t, ts, sr.Jobs[0].ID)
	if view.State != JobDone {
		t.Fatalf("job under journal failure ended %s (%s)", view.State, view.Error)
	}

	degraded, reason := s.Degraded()
	if !degraded || reason == "" {
		t.Fatalf("daemon not degraded after journal write failure (degraded=%v reason=%q)", degraded, reason)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || !h.Degraded || h.DegradedReason == "" {
		t.Fatalf("healthz under degradation: %+v", h)
	}
	if snap := getMetrics(t, ts); !snap.Degraded {
		t.Fatal("metrics do not report degradation")
	}

	// Still serving: a repeat of the cell is a cache hit.
	_, sr2 := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny"}`)
	if v := waitDone(t, ts, sr2.Jobs[0].ID); !v.CacheHit {
		t.Fatal("degraded daemon lost its in-memory cache")
	}
}

// TestSnapshotQuarantine: a corrupt snapshot is renamed aside (never
// deleted, never trusted) and the daemon starts empty.
func TestSnapshotQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	if err := os.WriteFile(path, []byte("{this is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1, SnapshotPath: path})
	matches, err := filepath.Glob(path + ".corrupt-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("quarantine produced %d files, want 1: %v", len(matches), matches)
	}
	if b, _ := os.ReadFile(matches[0]); string(b) != "{this is not a snapshot" {
		t.Fatal("quarantined bytes differ from the corrupt snapshot")
	}
	if snap := getMetrics(t, ts); snap.SnapshotQuarantines != 1 || snap.CacheSize != 0 {
		t.Fatalf("after quarantine: quarantines=%d cacheSize=%d", snap.SnapshotQuarantines, snap.CacheSize)
	}

	// The daemon is healthy on the empty cache.
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny"}`)
	if v := waitDone(t, ts, sr.Jobs[0].ID); v.State != JobDone || v.CacheHit {
		t.Fatalf("post-quarantine job: state %s cacheHit %v", v.State, v.CacheHit)
	}
}

// TestPeriodicSnapshotFlush: with SnapshotInterval set, the cache
// snapshot appears on disk without any shutdown — the flush loop wrote
// it — and a second daemon can serve from it.
func TestPeriodicSnapshotFlush(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	_, ts := newTestServer(t, Config{
		Workers:          1,
		SnapshotPath:     path,
		SnapshotInterval: 10 * time.Millisecond,
	})

	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny"}`)
	waitDone(t, ts, sr.Jobs[0].ID)

	// Poll until a flush that happened AFTER the job finished lands: the
	// first tick can race the run and legitimately snapshot an empty
	// cache, so wait for the entry, not just the file.
	deadline := time.Now().Add(10 * time.Second)
	for {
		// A whole segment holding one entry: checkpoint, done, trailer.
		if recs, _, _, err := readRecords(OSFS{}, path, false); err == nil && wholeSegment(recs) && len(recs) == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic flush never wrote a snapshot containing the finished cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPeriodicJournalCompaction: a journal-only daemon with a
// SnapshotInterval checkpoints while it runs, so its journal is one
// segment plus a short tail rather than a record of every cell it ever
// executed, waiting for the next restart to compact it.
func TestPeriodicJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	_, ts := newTestServer(t, Config{
		Workers:          1,
		JournalPath:      path,
		SnapshotInterval: 10 * time.Millisecond,
	})
	for seed := 1; seed <= 3; seed++ {
		_, sr := postJob(t, ts, fmt.Sprintf(`{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":%d}`, seed))
		waitDone(t, ts, sr.Jobs[0].ID)
	}

	// Poll until a checkpoint taken after the last job settled lands: one
	// whole segment holding the three entries (checkpoint, three done
	// records, trailer) and no tail.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if recs, _, _, err := readRecords(OSFS{}, path, false); err == nil && wholeSegment(recs) && len(recs) == 5 {
			break
		}
		if time.Now().After(deadline) {
			recs, _, _, _ := readRecords(OSFS{}, path, false)
			t.Fatalf("journal never compacted while running: %d records, want a 5-record segment", len(recs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := getMetrics(t, ts).JournalRotations; n < 2 {
		t.Fatalf("journalRotations = %d, want the boot compaction and at least one periodic one", n)
	}
}
