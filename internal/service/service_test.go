package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/workloads"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, SubmitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return resp, sr
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, JobView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, view
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, view := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d", id, code)
		}
		if view.State.terminal() {
			return view
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

func getMetrics(t *testing.T, ts *httptest.Server) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestEndToEndCacheDeterminism is the service's core correctness claim:
// the same experiment cell submitted twice returns byte-identical result
// JSON, with the second response served from the cache — the cache-hit
// counter increments and zero additional cycles are simulated.
func TestEndToEndCacheDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// First submission: omitted seed/cores (the defaults).
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	if len(sr.Jobs) != 1 {
		t.Fatalf("accepted %d jobs, want 1", len(sr.Jobs))
	}
	first := waitDone(t, ts, sr.Jobs[0].ID)
	if first.State != JobDone {
		t.Fatalf("first run ended %s (%s)", first.State, first.Error)
	}
	if first.CacheHit {
		t.Fatal("first run claims a cache hit on an empty cache")
	}
	if len(first.Result) == 0 {
		t.Fatal("first run returned no result")
	}

	m1 := getMetrics(t, ts)
	if m1.RunsExecuted != 1 || m1.SimCyclesExecuted == 0 {
		t.Fatalf("after one run: runsExecuted=%d simCycles=%d", m1.RunsExecuted, m1.SimCyclesExecuted)
	}

	// Second submission of the SAME cell, this time with the defaults
	// spelled out — canonicalization must fold them onto the same key.
	_, sr2 := postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1,"cores":8,"maxRetries":64}`)
	second := waitDone(t, ts, sr2.Jobs[0].ID)
	if second.State != JobDone {
		t.Fatalf("second run ended %s (%s)", second.State, second.Error)
	}
	if !second.CacheHit {
		t.Fatal("identical cell was not served from cache")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cache hit is not byte-identical:\n%s\n%s", first.Result, second.Result)
	}

	m2 := getMetrics(t, ts)
	if m2.CacheHits != m1.CacheHits+1 {
		t.Fatalf("cacheHits %d -> %d, want +1", m1.CacheHits, m2.CacheHits)
	}
	if m2.SimCyclesExecuted != m1.SimCyclesExecuted {
		t.Fatalf("cache hit simulated cycles: %d -> %d", m1.SimCyclesExecuted, m2.SimCyclesExecuted)
	}
	if m2.RunsExecuted != 1 {
		t.Fatalf("cache hit re-ran the simulation (runsExecuted=%d)", m2.RunsExecuted)
	}
}

// TestConcurrentSubmitPoll hammers the daemon from many clients at once
// (the -race CI job is the real assertion here): duplicate cells race
// each other, every job terminates, and every copy of a result is
// byte-identical to the others with its key.
func TestConcurrentSubmitPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256})

	workloadSet := []string{"kmeans", "genome", "intruder"}
	var (
		mu      sync.Mutex
		byKey   = map[string][]byte{}
		results int
	)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wl := workloadSet[i%len(workloadSet)]
			seed := 1 + i%2 // force key collisions across goroutines
			_, sr := postJob(t, ts, fmt.Sprintf(
				`{"workload":%q,"detection":"subblock-4","scale":"tiny","seed":%d}`, wl, seed))
			if len(sr.Jobs) != 1 {
				return
			}
			view := waitDone(t, ts, sr.Jobs[0].ID)
			if view.State != JobDone {
				t.Errorf("job %s ended %s (%s)", view.ID, view.State, view.Error)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			results++
			if prev, ok := byKey[view.Key]; ok {
				if !bytes.Equal(prev, view.Result) {
					t.Errorf("key %s served two different results", view.Key)
				}
			} else {
				byKey[view.Key] = view.Result
			}
		}(i)
	}
	wg.Wait()
	if results != 24 {
		t.Fatalf("%d/24 jobs completed", results)
	}
	if len(byKey) != 6 { // 3 workloads x 2 seeds
		t.Fatalf("%d distinct keys, want 6", len(byKey))
	}
}

// TestQueueOverflow429: submissions beyond queue capacity are refused
// with 429 and the rejection counter increments — backpressure instead
// of unbounded buffering. A single cell simulates faster than an HTTP
// roundtrip, so the flood must be concurrent and the cells heavy enough
// (medium scale) that the lone worker cannot drain between arrivals.
func TestQueueOverflow429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	const flood = 12
	statuses := make(chan int, flood)
	var wg sync.WaitGroup
	for seed := 1; seed <= flood; seed++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			resp, sr := postJob(t, ts, fmt.Sprintf(
				`{"workload":"labyrinth","detection":"baseline","scale":"medium","seed":%d}`, seed))
			if resp.StatusCode == http.StatusTooManyRequests && sr.Error == "" {
				t.Error("429 without an error message")
			}
			statuses <- resp.StatusCode
		}(seed)
	}
	wg.Wait()
	close(statuses)

	var accepted, rejected int
	for code := range statuses {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if accepted == 0 {
		t.Fatal("every submission was rejected")
	}
	if rejected == 0 {
		t.Fatal("queue never overflowed")
	}
	if snap := getMetrics(t, ts); snap.JobsRejected != uint64(rejected) {
		t.Fatalf("jobsRejected = %d, want %d", snap.JobsRejected, rejected)
	}
}

// TestGracefulShutdownDrains: Shutdown finishes queued and running jobs
// before returning, and the drained daemon refuses new work with 503.
func TestGracefulShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})

	var ids []string
	for seed := 1; seed <= 4; seed++ {
		_, sr := postJob(t, ts, fmt.Sprintf(
			`{"workload":"genome","detection":"subblock-4","scale":"tiny","seed":%d}`, seed))
		if len(sr.Jobs) != 1 {
			t.Fatal("submission rejected")
		}
		ids = append(ids, sr.Jobs[0].ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		code, view := getJob(t, ts, id)
		if code != http.StatusOK || view.State != JobDone {
			t.Fatalf("job %s after drain: status %d state %s (%s)", id, code, view.State, view.Error)
		}
	}

	resp, sr := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon answered %d, want 503", resp.StatusCode)
	}
	if sr.Error == "" {
		t.Fatal("503 without an error message")
	}
}

// TestShutdownDeadlineCancelsInFlight: when the drain budget expires,
// in-flight simulations are canceled through the sim-level hook and the
// job ends in state "canceled" rather than hanging Shutdown forever.
func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	_, sr := postJob(t, ts, `{"workload":"labyrinth","detection":"baseline","scale":"medium"}`)
	if len(sr.Jobs) != 1 {
		t.Fatal("submission rejected")
	}
	// Give the worker a moment to dequeue, then drain with an already
	// expired deadline: the kill channel must cancel the running cell.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, view := getJob(t, ts, sr.Jobs[0].ID)
	if view.State != JobCanceled && view.State != JobDone {
		t.Fatalf("in-flight job ended %s, want canceled (or done if it won the race)", view.State)
	}
	if view.State == JobCanceled && view.Error == "" {
		t.Fatal("canceled job carries no error")
	}
}

// TestJobTimeoutCancels: a per-job wall-clock cap ends the run in state
// "canceled" via the same hook.
func TestJobTimeoutCancels(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobTimeout: time.Millisecond})

	_, sr := postJob(t, ts, `{"workload":"labyrinth","detection":"baseline","scale":"medium"}`)
	if len(sr.Jobs) != 1 {
		t.Fatal("submission rejected")
	}
	view := waitDone(t, ts, sr.Jobs[0].ID)
	if view.State != JobCanceled {
		t.Fatalf("timed-out job ended %s, want canceled", view.State)
	}
}

// TestSnapshotPersistence: a restarted daemon serves yesterday's sweep
// from the reloaded snapshot without re-simulating anything.
func TestSnapshotPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "asfd.cache.json")
	body := `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`

	s1, ts1 := newTestServer(t, Config{Workers: 1, SnapshotPath: path})
	_, sr := postJob(t, ts1, body)
	first := waitDone(t, ts1, sr.Jobs[0].ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, SnapshotPath: path})
	_, sr2 := postJob(t, ts2, body)
	second := waitDone(t, ts2, sr2.Jobs[0].ID)
	if !second.CacheHit {
		t.Fatal("restarted daemon re-simulated a snapshotted cell")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("snapshot round trip changed the stored bytes")
	}
	if s2.Metrics().SimCyclesExecuted() != 0 {
		t.Fatal("restarted daemon executed cycles for a cached cell")
	}
}

// TestValidationErrors: malformed cells are rejected with 400 through
// the same parse/validation paths the CLIs use.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"unknown workload":  `{"workload":"nope","detection":"baseline","scale":"tiny"}`,
		"unknown detection": `{"workload":"kmeans","detection":"nope","scale":"tiny"}`,
		"unknown scale":     `{"workload":"kmeans","detection":"baseline","scale":"huge"}`,
		"unknown field":     `{"workload":"kmeans","detection":"baseline","scale":"tiny","bogus":1}`,
		"bad fault rate":    `{"workload":"kmeans","detection":"baseline","scale":"tiny","faultInterruptRate":2.0}`,
		"bad retry policy":  `{"workload":"kmeans","detection":"baseline","scale":"tiny","retryPolicy":"nope"}`,
	} {
		resp, sr := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if sr.Error == "" {
			t.Errorf("%s: no error message", name)
		}
	}

	if code, _ := getJob(t, ts, "job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job answered %d, want 404", code)
	}
}

// TestSubmitDirect exercises the programmatic (non-HTTP) API the same
// way embedded users would.
func TestSubmitDirect(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	job, err := s.Submit(harness.CellSpec{
		Workload:  "kmeans",
		Detection: asfsim.DetectPerfect,
		Scale:     workloads.ScaleTiny,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done
	view, ok := s.Lookup(job.ID)
	if !ok || view.State != JobDone {
		t.Fatalf("direct job: ok=%v state=%s err=%s", ok, view.State, view.Error)
	}
	if view.Detection != "perfect" || view.Seed != 1 {
		t.Fatalf("view not normalized: %+v", view)
	}
}
