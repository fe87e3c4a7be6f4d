package service

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// recoverySpecs is the 8-cell matrix the crash-recovery test runs:
// 2 workloads x 2 detections x 2 seeds at tiny scale.
func recoverySpecs() []harness.CellSpec {
	var specs []harness.CellSpec
	for _, wl := range []string{"kmeans", "genome"} {
		for _, det := range []asfsim.Detection{asfsim.DetectBaseline, asfsim.DetectSubBlock4} {
			for seed := uint64(1); seed <= 2; seed++ {
				specs = append(specs, harness.CellSpec{
					Workload: wl, Detection: det, Scale: workloads.ScaleTiny, Seed: seed,
				})
			}
		}
	}
	return specs
}

func waitTerminalDirect(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := s.Lookup(id); ok && v.State.terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobView{}
}

// TestCrashRecoveryEndToEnd is the tentpole durability claim: a daemon
// killed mid-matrix loses nothing. Every job it accepted is replayed
// from the journal on restart, re-runs to done, and the results are
// byte-identical to an uninterrupted run of the same matrix — and a
// subsequent resubmission of the full matrix is served entirely from
// cache, executing zero additional simulated cycles.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	specs := recoverySpecs()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Reference: the same matrix on a journal-less daemon, uninterrupted.
	ref := make(map[string][]byte)
	refSrv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		job, err := refSrv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		view := waitTerminalDirect(t, refSrv, job.ID)
		if view.State != JobDone {
			t.Fatalf("reference %s/%v/seed %d ended %s (%s)", spec.Workload, spec.Detection, spec.Seed, view.State, view.Error)
		}
		ref[view.Key] = view.Result
	}
	if err := refSrv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(specs) {
		t.Fatalf("reference produced %d distinct keys for %d specs", len(ref), len(specs))
	}

	// Incarnation 1: submit the matrix, then die mid-run without any
	// graceful persistence (Kill models SIGKILL: no snapshot, no
	// journaled cancellations).
	dir := t.TempDir()
	cfg := Config{
		Workers:      2,
		QueueDepth:   64,
		SnapshotPath: filepath.Join(dir, "cache.json"),
		JournalPath:  filepath.Join(dir, "journal.wal"),
	}
	crash, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, spec := range specs {
		job, err := crash.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	time.Sleep(3 * time.Millisecond) // let some jobs start or even finish
	crash.Kill()

	// Incarnation 2: same journal, same snapshot path.
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	rec := s.Recovery()
	if rec.Replayed != len(specs) {
		t.Fatalf("replayed %d jobs, want %d (stats %+v)", rec.Replayed, len(specs), rec)
	}
	if rec.Reenqueued == 0 {
		t.Fatalf("nothing was re-enqueued after a mid-run crash (stats %+v)", rec)
	}

	// Every job ID accepted before the crash is known to the restarted
	// daemon and runs to done with the reference bytes.
	got := make(map[string][]byte)
	for _, id := range ids {
		if _, ok := s.Lookup(id); !ok {
			t.Fatalf("job %s accepted before the crash is unknown after restart", id)
		}
		view := waitTerminalDirect(t, s, id)
		if view.State != JobDone {
			t.Fatalf("recovered job %s ended %s (%s)", id, view.State, view.Error)
		}
		want, ok := ref[view.Key]
		if !ok {
			t.Fatalf("recovered job %s has unexpected key %s", id, view.Key)
		}
		if !bytes.Equal(view.Result, want) {
			t.Fatalf("recovered job %s result differs from the uninterrupted run", id)
		}
		got[view.Key] = view.Result
	}
	if len(got) != len(ref) {
		t.Fatalf("recovery covered %d keys, reference has %d", len(got), len(ref))
	}

	// Resubmitting the identical matrix must be pure cache service:
	// zero additional simulated cycles.
	cycles := s.Metrics().SimCyclesExecuted()
	for _, spec := range specs {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		view := waitTerminalDirect(t, s, job.ID)
		if view.State != JobDone || !view.CacheHit {
			t.Fatalf("resubmitted cell %s: state %s cacheHit %v", job.ID, view.State, view.CacheHit)
		}
	}
	if after := s.Metrics().SimCyclesExecuted(); after != cycles {
		t.Fatalf("resubmission simulated %d duplicate cycles", after-cycles)
	}
}

// TestRecoveryAfterCleanShutdown: a graceful shutdown compacts the
// journal against the snapshot, so the next boot replays nothing and
// still serves the whole matrix from cache.
func TestRecoveryAfterCleanShutdown(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	cfg := Config{
		Workers:      2,
		SnapshotPath: filepath.Join(dir, "cache.json"),
		JournalPath:  filepath.Join(dir, "journal.wal"),
	}

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		job, err := first.Submit(harness.CellSpec{
			Workload: "kmeans", Detection: asfsim.DetectSubBlock4, Scale: workloads.ScaleTiny, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := waitTerminalDirect(t, first, job.ID); v.State != JobDone {
			t.Fatalf("seed %d ended %s (%s)", seed, v.State, v.Error)
		}
	}
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Shutdown(ctx)
	if rec := second.Recovery(); rec.Reenqueued != 0 || rec.Torn != 0 {
		t.Fatalf("clean shutdown left work to recover: %+v", rec)
	}
	job, err := second.Submit(harness.CellSpec{
		Workload: "kmeans", Detection: asfsim.DetectSubBlock4, Scale: workloads.ScaleTiny, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminalDirect(t, second, job.ID); !v.CacheHit {
		t.Fatal("snapshotted cell was re-simulated after a clean restart")
	}
	if second.Metrics().SimCyclesExecuted() != 0 {
		t.Fatal("restarted daemon executed cycles for snapshotted cells")
	}
}

// TestJournalingDisabledMatchesPR3Behavior: with no JournalPath the
// daemon takes the exact pre-journal code paths — no journal file, no
// recovery stats, no journal records counted — and still serves cells.
func TestJournalingDisabledMatchesPR3Behavior(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny"}`)
	if len(sr.Jobs) != 1 {
		t.Fatal("submission rejected")
	}
	if v := waitDone(t, ts, sr.Jobs[0].ID); v.State != JobDone {
		t.Fatalf("job ended %s", v.State)
	}
	if rec := s.Recovery(); rec != (RecoveryStats{}) {
		t.Fatalf("journal-less daemon reports recovery stats: %+v", rec)
	}
	if snap := getMetrics(t, ts); snap.JournalRecords != 0 || snap.JournalRotations != 0 {
		t.Fatalf("journal-less daemon counted journal activity: records=%d rotations=%d",
			snap.JournalRecords, snap.JournalRotations)
	}
}

// TestRestartDoesNotReissueJobIDs: job IDs survive a clean restart
// through the snapshot's and the journal's checkpoints, so a restarted
// daemon never hands a new cell an ID it already gave another one, and
// a poll of an old ID never returns another cell's view.
func TestRestartDoesNotReissueJobIDs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	cfg := Config{
		Workers:      2,
		SnapshotPath: filepath.Join(dir, "cache.snap"),
		JournalPath:  filepath.Join(dir, "journal.wal"),
	}
	spec := func(seed uint64) harness.CellSpec {
		return harness.CellSpec{Workload: "kmeans", Detection: asfsim.DetectSubBlock4, Scale: workloads.ScaleTiny, Seed: seed}
	}

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	issued := make(map[string]string)        // job ID -> key
	for _, seed := range []uint64{1, 2, 1} { // the repeat is a cache hit with its own ID
		job, err := first.Submit(spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminalDirect(t, first, job.ID)
		issued[job.ID] = job.Key
	}
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Shutdown(ctx)
	job, err := second.Submit(spec(3))
	if err != nil {
		t.Fatal(err)
	}
	if key, dup := issued[job.ID]; dup {
		t.Fatalf("restarted daemon reissued %s (was key %s, now %s)", job.ID, key, job.Key)
	}
	waitTerminalDirect(t, second, job.ID)
	for id, key := range issued {
		if v, ok := second.Lookup(id); ok && v.Key != key {
			t.Fatalf("GET %s after restart returned key %s, want %s or unknown", id, v.Key, key)
		}
	}
}
