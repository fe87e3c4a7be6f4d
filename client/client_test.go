package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/backoff"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/workloads"
)

// fastOpts keeps retry timing out of the test budget: millisecond
// backoff, pinned jitter seed.
func fastOpts() Options {
	return Options{
		MaxAttempts: 4,
		Backoff:     backoff.Config{BaseCycles: 1, MaxCycles: 4, Jitter: 0},
		Seed:        1,
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestClientEndToEnd drives a real daemon: RunCell returns the decoded
// record, and a repeat of the same cell is served from the cache.
func TestClientEndToEnd(t *testing.T) {
	s, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Kill()

	c := New(ts.URL, fastOpts())
	ctx := testCtx(t)
	req := service.JobRequest{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"}

	rec, err := c.RunCell(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "kmeans" || rec.Cycles == 0 {
		t.Fatalf("record looks empty: workload=%q cycles=%d", rec.Workload, rec.Cycles)
	}

	if _, err := c.RunCell(ctx, req); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.CacheHits == 0 || snap.RunsExecuted != 1 {
		t.Fatalf("repeat cell was not cache-served: hits=%d runs=%d", snap.CacheHits, snap.RunsExecuted)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Degraded {
		t.Fatalf("health: %+v", h)
	}
}

// TestClientRetries429: queue-full responses are retried with backoff
// until the daemon accepts the job.
func TestClientRetries429(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		if posts.Add(1) < 3 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		json.NewEncoder(w).Encode(service.SubmitResponse{Jobs: []service.JobView{{
			ID: "job-000000", State: service.JobDone, Result: json.RawMessage(`{}`),
		}}})
	}))
	defer ts.Close()

	view, err := New(ts.URL, fastOpts()).Submit(testCtx(t), service.JobRequest{Workload: "kmeans"})
	if err != nil {
		t.Fatal(err)
	}
	if view.ID != "job-000000" || posts.Load() != 3 {
		t.Fatalf("view %+v after %d posts, want job-000000 after 3", view, posts.Load())
	}
}

// TestRetryRoundsRevisitLiveEndpoints: once every endpoint has failed
// a request, the next attempt starts a new round over all of them — a
// single transient 503 from each live endpoint must not leave the
// remaining attempts pinned to the dead preferred one.
func TestRetryRoundsRevisitLiveEndpoints(t *testing.T) {
	var servers []*httptest.Server
	var hits [3]atomic.Int32
	for i := range hits {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hits[i].Add(1) == 1 {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error":"transient"}`)
				return
			}
			json.NewEncoder(w).Encode(service.Health{Status: "ok"})
		}))
		defer ts.Close()
		servers = append(servers, ts)
	}
	opts := fastOpts()
	opts.MaxAttempts = 6
	c := New(servers[0].URL+","+servers[1].URL+","+servers[2].URL, opts)

	// Kill the endpoint keyless requests prefer.
	dead := rank(c.endpoints, "")[0].base
	for _, ts := range servers {
		if ts.URL == dead {
			ts.Close()
		}
	}

	if _, err := c.Health(testCtx(t)); err != nil {
		t.Fatalf("health with one endpoint dead and two flaky: %v", err)
	}
}

// TestClientDoesNotRetry4xx: validation errors come straight back as
// *APIError without burning retry attempts.
func TestClientDoesNotRetry4xx(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"unknown workload"}`)
	}))
	defer ts.Close()

	_, err := New(ts.URL, fastOpts()).Submit(testCtx(t), service.JobRequest{Workload: "nope"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if posts.Load() != 1 {
		t.Fatalf("400 was retried %d times", posts.Load()-1)
	}
}

// TestClientUnknownJob: a 404 poll surfaces as ErrUnknownJob.
func TestClientUnknownJob(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job"}`)
	}))
	defer ts.Close()

	_, err := New(ts.URL, fastOpts()).Job(testCtx(t), "job-000042")
	if !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

// TestRunCellResubmitsAfterRestart models the crash the client exists
// for: the daemon accepts a job, "restarts" (forgetting the ID), and the
// client resubmits the cell instead of failing the matrix.
func TestRunCellResubmitsAfterRestart(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			n := posts.Add(1)
			state := service.JobQueued
			var result json.RawMessage
			if n > 1 { // the "restarted" daemon serves the cell from cache
				state = service.JobDone
				result = json.RawMessage(`{"workload":"kmeans"}`)
			}
			json.NewEncoder(w).Encode(service.SubmitResponse{Jobs: []service.JobView{{
				ID: fmt.Sprintf("job-%06d", n-1), State: state, Result: result, CacheHit: n > 1,
			}}})
		case r.URL.Path == "/v1/jobs/job-000000": // pre-restart ID: forgotten
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown job"}`)
		default:
			json.NewEncoder(w).Encode(service.JobView{
				ID: "job-000001", State: service.JobDone,
				Result: json.RawMessage(`{"workload":"kmeans"}`),
			})
		}
	}))
	defer ts.Close()

	rec, err := New(ts.URL, fastOpts()).RunCell(testCtx(t), service.JobRequest{Workload: "kmeans"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "kmeans" || posts.Load() != 2 {
		t.Fatalf("record %+v after %d submissions, want kmeans after 2", rec, posts.Load())
	}
}

// countingTransport counts the requests a client sends, by method, and
// closes polled when the first GET goes out.
type countingTransport struct {
	posts, gets atomic.Int32
	polledOnce  sync.Once
	polled      chan struct{}
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet {
		ct.gets.Add(1)
		ct.polledOnce.Do(func() { close(ct.polled) })
	} else {
		ct.posts.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRunCellRoundTrips: a miss costs exactly a submit and one
// long-poll, and a cache hit exactly one request — the submit, which
// already carries the result.
func TestRunCellRoundTrips(t *testing.T) {
	ct := &countingTransport{polled: make(chan struct{})}
	// The cell may not run until the client is polling: the submit sees
	// it unfinished, so only a held poll can answer with one request.
	s, err := service.New(service.Config{Workers: 1, BeforeRun: func(harness.CellSpec) {
		select {
		case <-ct.polled:
		case <-time.After(10 * time.Second):
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Kill()

	opts := fastOpts()
	opts.HTTPClient = &http.Client{Transport: ct}
	c := New(ts.URL, opts)
	req := service.JobRequest{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"}
	for _, want := range []struct {
		name        string
		posts, gets int32
	}{{"miss", 1, 1}, {"hit", 1, 0}} {
		ct.posts.Store(0)
		ct.gets.Store(0)
		if _, err := c.RunCell(testCtx(t), req); err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if p, g := ct.posts.Load(), ct.gets.Load(); p != want.posts || g != want.gets {
			t.Errorf("%s: %d submits + %d polls, want %d + %d", want.name, p, g, want.posts, want.gets)
		}
	}
}

// TestRunCellRejectsReissuedJobID: a daemon restarted under a waiting
// client reissues job IDs, so the polled ID can name another cell. The
// client must not return that cell's record: a view whose key differs
// from the submitted one counts as an unknown job and is resubmitted.
func TestRunCellRejectsReissuedJobID(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			view := service.JobView{ID: "job-000000", Key: "kmeans-key", State: service.JobQueued}
			if posts.Add(1) > 1 {
				view.State, view.Result = service.JobDone, json.RawMessage(`{"workload":"kmeans"}`)
			}
			json.NewEncoder(w).Encode(service.SubmitResponse{Jobs: []service.JobView{view}})
			return
		}
		// The restarted daemon gave job-000000 to a genome cell.
		json.NewEncoder(w).Encode(service.JobView{
			ID: "job-000000", Key: "genome-key", State: service.JobDone,
			Result: json.RawMessage(`{"workload":"genome"}`),
		})
	}))
	defer ts.Close()

	rec, err := New(ts.URL, fastOpts()).RunCell(testCtx(t), service.JobRequest{Workload: "kmeans"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "kmeans" || posts.Load() != 2 {
		t.Fatalf("record for %q after %d submissions, want kmeans after 2", rec.Workload, posts.Load())
	}
}

// TestHitJobIDNotDurable: a cache hit is neither journaled nor
// replicated, so a daemon restarted after serving one answers 404 for
// its ID. The client resubmits and gets the same bytes as a free hit.
func TestHitJobIDNotDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := service.Config{
		Workers:      1,
		JournalPath:  filepath.Join(dir, "journal.wal"),
		SnapshotPath: filepath.Join(dir, "cache.json"),
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	ctx := testCtx(t)
	req := service.JobRequest{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"}
	c := New(ts.URL, fastOpts())
	if _, err := c.RunCell(ctx, req); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	hit, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != service.JobDone || !hit.CacheHit {
		t.Fatalf("repeat submission: state %s, cacheHit %v", hit.State, hit.CacheHit)
	}
	ts.Close()
	s.Kill()

	s2, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Kill()
	c2 := New(ts2.URL, fastOpts())
	if _, err := c2.Wait(ctx, hit.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("restarted daemon on the hit's ID %s: err = %v, want ErrUnknownJob", hit.ID, err)
	}
	if _, err := c2.RunCell(ctx, req); err != nil {
		t.Fatal(err)
	}
	again, err := c2.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !bytes.Equal(again.Result, hit.Result) {
		t.Fatalf("resubmission: cacheHit %v, bytes equal %v", again.CacheHit, bytes.Equal(again.Result, hit.Result))
	}
	if n := s2.Metrics().SimCyclesExecuted(); n != 0 {
		t.Fatalf("restarted daemon simulated %d cycles for a cached cell", n)
	}
}

// TestRunCellReportsFailure: a job that ends "failed" carries the
// daemon's structured error kind in the client error.
func TestRunCellReportsFailure(t *testing.T) {
	failed := service.JobView{
		ID: "job-000000", State: service.JobFailed,
		Error: "panic during cell execution: boom", ErrorKind: "panic",
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			json.NewEncoder(w).Encode(service.SubmitResponse{Jobs: []service.JobView{failed}})
			return
		}
		json.NewEncoder(w).Encode(failed)
	}))
	defer ts.Close()

	_, err := New(ts.URL, fastOpts()).RunCell(testCtx(t), service.JobRequest{Workload: "kmeans"})
	if err == nil {
		t.Fatal("failed job returned no error")
	}
	for _, want := range []string{"panic", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestCollectMatrixMatchesLocal is the client's figure-fidelity claim:
// a matrix collected through the daemon renders the same figure text as
// harness.Collect running in-process, because the daemon executes the
// same deterministic cells.
func TestCollectMatrixMatchesLocal(t *testing.T) {
	s, err := service.New(service.Config{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Kill()

	opts := harness.Options{
		Scale:     workloads.ScaleTiny,
		Seeds:     []uint64{1, 2},
		Cores:     8,
		Workloads: []string{"kmeans", "genome"},
	}
	dets := []asfsim.Detection{asfsim.DetectBaseline, asfsim.DetectSubBlock4}

	local, err := harness.Collect(opts, dets)
	if err != nil {
		t.Fatal(err)
	}
	served, err := New(ts.URL, fastOpts()).CollectMatrix(testCtx(t), opts, dets)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := served.Fig1(), local.Fig1(); got != want {
		t.Fatalf("served Fig1 differs from local:\n--- served ---\n%s\n--- local ---\n%s", got, want)
	}
	if got, want := served.Fig8(), local.Fig8(); got != want {
		t.Fatal("served Fig8 differs from local")
	}
}
