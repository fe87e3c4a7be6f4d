package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/workloads"
)

// TestAdmissionAIMD pins the controller's shape: additive growth while
// latency is at or under target, multiplicative decrease the moment the
// EWMA exceeds it, clamped to [min, max], with batch admitted against a
// reduced limit.
func TestAdmissionAIMD(t *testing.T) {
	a := newAdmission(100*time.Millisecond, 2, 10)
	if got := a.Limit(); got != 10 {
		t.Fatalf("initial limit = %d, want the max (10)", got)
	}

	// Sustained over-target latency collapses the limit toward min.
	for i := 0; i < 50; i++ {
		a.observe(500 * time.Millisecond)
	}
	if got := a.Limit(); got != 2 {
		t.Fatalf("limit after sustained overload = %d, want the min (2)", got)
	}

	// Recovery: under-target observations grow it back additively —
	// strictly slower than the decay, and never past max.
	for i := 0; i < 1000; i++ {
		a.observe(time.Millisecond)
	}
	if got := a.Limit(); got != 10 {
		t.Fatalf("limit after sustained recovery = %d, want the max (10)", got)
	}

	// Batch is shed at a fraction of the limit while interactive still
	// gets in.
	if !a.admit(PriorityInteractive, 9) {
		t.Fatal("interactive refused below the limit")
	}
	if a.admit(PriorityBatch, 9) {
		t.Fatal("batch admitted past its fraction of the limit")
	}
	if a.admit(PriorityInteractive, 10) {
		t.Fatal("interactive admitted at the limit")
	}

	// A nil controller (admission off) admits everything.
	var off *admission
	if !off.admit(PriorityBatch, 1<<30) || off.Limit() != 0 {
		t.Fatal("disabled controller must admit everything and report limit 0")
	}
	off.observe(time.Hour) // must not panic
}

func TestParsePriority(t *testing.T) {
	for in, want := range map[string]Priority{
		"":            PriorityInteractive,
		"interactive": PriorityInteractive,
		"batch":       PriorityBatch,
	} {
		got, err := ParsePriority(in)
		if err != nil || got != want {
			t.Fatalf("ParsePriority(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParsePriority("bulk"); err == nil {
		t.Fatal("ParsePriority accepted an unknown class")
	}
}

// TestAdmissionOverloadShed drives a gated single-worker daemon to its
// admission limit (ceiling workers+queue = 4) and asserts the shed
// order: batch first (at 75% of the limit), then interactive, both as
// 429 with ErrOverloaded, the shedOverload counter, a Retry-After
// header, and the structured error envelope.
func TestAdmissionOverloadShed(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	s, ts := newTestServer(t, Config{
		Workers:         1,
		QueueDepth:      3,
		AdmissionTarget: time.Millisecond,
		BeforeRun:       func(harness.CellSpec) { <-gate },
	})

	// Fill the system to 3 jobs (1 running + 2 queued), all interactive.
	for seed := 1; seed <= 3; seed++ {
		resp, _ := postJob(t, ts, fmt.Sprintf(
			`{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":%d}`, seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %d: status %d, want 202", seed, resp.StatusCode)
		}
	}
	waitFor(t, func() bool { return s.Running() == 1 && s.QueueDepth() == 2 })

	// Batch is refused at 3 in-system (>= 75% of limit 4)...
	resp, sr := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":50,"priority":"batch"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch at 3/4: status %d, want 429", resp.StatusCode)
	}
	if !strings.Contains(sr.Error, "overloaded") {
		t.Fatalf("batch shed error = %q, want an overload message", sr.Error)
	}
	if resp.Header.Get("Retry-After") == "" || sr.RetryAfterSeconds <= 0 {
		t.Fatalf("overload shed carries no retry hint (header %q, body %d)",
			resp.Header.Get("Retry-After"), sr.RetryAfterSeconds)
	}

	// ...while interactive still gets the last slot...
	resp, _ = postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":51}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive at 3/4: status %d, want 202", resp.StatusCode)
	}

	// ...and is refused at the full limit.
	resp, _ = postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":52}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("interactive at 4/4: status %d, want 429", resp.StatusCode)
	}

	snap := getMetrics(t, ts)
	if snap.ShedOverload != 2 {
		t.Fatalf("shedOverload = %d, want 2", snap.ShedOverload)
	}
	if snap.AdmissionLimit != 4 {
		t.Fatalf("admissionLimit gauge = %d, want 4", snap.AdmissionLimit)
	}

	// Health mirrors the load signals for balancers.
	h := s.Health()
	if h.AdmissionLimit != 4 || h.InFlight != 1 || h.QueueDepth != 3 {
		t.Fatalf("health = %+v, want limit 4, inFlight 1, queueDepth 3", h)
	}

	release()
}

// TestAdmissionLimitAdapts proves the end-to-end AIMD loop: completions
// slower than the target pull the live limit down from its ceiling
// (workers+queue = 100).
func TestAdmissionLimitAdapts(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:         2,
		QueueDepth:      98,
		AdmissionTarget: time.Nanosecond, // every real completion is "too slow"
	})
	for seed := 1; seed <= 4; seed++ {
		_, sr := postJob(t, ts, fmt.Sprintf(
			`{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":%d}`, seed))
		if len(sr.Jobs) == 1 {
			waitDone(t, ts, sr.Jobs[0].ID)
		}
	}
	if lim := s.AdmissionLimit(); lim >= 100 {
		t.Fatalf("admission limit never backed off: %d", lim)
	}
}

// TestDeadlineExpiredAtSubmit: a dead-on-arrival X-ASF-Deadline is shed
// with 408 before any work happens — unless the result is already
// cached, in which case serving it is free and the deadline is moot.
func TestDeadlineExpiredAtSubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	body := `{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":9}`
	past := time.Now().Add(-time.Second).Format(time.RFC3339Nano)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-ASF-Deadline", past)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	decodeBody(t, resp, &sr)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("expired deadline: status %d, want 408", resp.StatusCode)
	}
	if !strings.Contains(sr.Error, "deadline") {
		t.Fatalf("expired-deadline error = %q", sr.Error)
	}
	if snap := getMetrics(t, ts); snap.ShedExpired != 1 {
		t.Fatalf("shedExpired = %d, want 1", snap.ShedExpired)
	}

	// Warm the cache, then resubmit with the same expired deadline: the
	// cached result is served (202, done, cacheHit) — nothing to shed.
	_, sr2 := postJob(t, ts, body)
	if len(sr2.Jobs) != 1 {
		t.Fatal("warming submission rejected")
	}
	waitDone(t, ts, sr2.Jobs[0].ID)

	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("X-ASF-Deadline", past)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var sr3 SubmitResponse
	decodeBody(t, resp2, &sr3)
	if resp2.StatusCode != http.StatusAccepted || len(sr3.Jobs) != 1 || !sr3.Jobs[0].CacheHit {
		t.Fatalf("cached cell with expired deadline: status %d, resp %+v (want 202 cache hit)",
			resp2.StatusCode, sr3)
	}

	// A malformed deadline is a 400, not a silent ignore.
	req3, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req3.Header.Set("Content-Type", "application/json")
	req3.Header.Set("X-ASF-Deadline", "half past noon")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline: status %d, want 400", resp3.StatusCode)
	}
}

// TestDeadlineShedWhileQueued: a job whose deadline passes while it
// waits in the queue is shed at dequeue — canceled, counted, and never
// simulated.
func TestDeadlineShedWhileQueued(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	s, ts := newTestServer(t, Config{
		Workers:   1,
		BeforeRun: func(harness.CellSpec) { <-gate },
	})

	// Occupy the only worker.
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":1}`)
	if len(sr.Jobs) != 1 {
		t.Fatal("blocker rejected")
	}
	waitFor(t, func() bool { return s.Running() == 1 })

	// Queue a job with a deadline that will expire while it waits.
	body := `{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":2}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-ASF-Deadline", time.Now().Add(30*time.Millisecond).Format(time.RFC3339Nano))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr2 SubmitResponse
	decodeBody(t, resp, &sr2)
	if resp.StatusCode != http.StatusAccepted || len(sr2.Jobs) != 1 {
		t.Fatalf("queued submission: status %d", resp.StatusCode)
	}

	time.Sleep(50 * time.Millisecond) // let the deadline lapse in-queue
	release()

	view := waitDone(t, ts, sr2.Jobs[0].ID)
	if view.State != JobCanceled || !strings.Contains(view.Error, "deadline expired") {
		t.Fatalf("queued-past-deadline job: state %s, err %q", view.State, view.Error)
	}
	snap := getMetrics(t, ts)
	if snap.ShedExpired != 1 {
		t.Fatalf("shedExpired = %d, want 1", snap.ShedExpired)
	}
	// The shed job must not have consumed a simulation: exactly one run
	// (the blocker) executed.
	if snap.RunsExecuted != 1 {
		t.Fatalf("runsExecuted = %d, want 1 (shed job must not simulate)", snap.RunsExecuted)
	}
}

// TestDeadlineCancelsRunning: a deadline that passes mid-run fires the
// simulator's cancellation hook (Config.Cancel path) and ends the job
// "canceled".
func TestDeadlineCancelsRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// kmeans@medium runs for most of a second, so a 30ms deadline lands
	// mid-simulation even on a fast machine.
	body := `{"workload":"kmeans","detection":"baseline","scale":"medium"}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-ASF-Deadline", time.Now().Add(30*time.Millisecond).Format(time.RFC3339Nano))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	decodeBody(t, resp, &sr)
	if resp.StatusCode != http.StatusAccepted || len(sr.Jobs) != 1 {
		t.Fatalf("submission: status %d", resp.StatusCode)
	}
	view := waitDone(t, ts, sr.Jobs[0].ID)
	if view.State != JobCanceled && view.State != JobDone {
		t.Fatalf("mid-run deadline: state %s, want canceled (or done if it won the race)", view.State)
	}
	if view.State == JobDone {
		t.Skip("cell finished before the deadline fired on this machine")
	}
}

// TestSingleFlightDedup: concurrent submissions of one cell execute the
// simulation exactly once — the duplicates wait on the leader and serve
// its bytes — so resubmission under failover can never inflate
// simulated cycles.
func TestSingleFlightDedup(t *testing.T) {
	started := make(chan struct{}, 16)
	proceed := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 4,
		BeforeRun: func(harness.CellSpec) {
			started <- struct{}{}
			<-proceed
		},
	})

	spec := harness.CellSpec{Workload: workloads.Names()[0], Scale: workloads.ScaleTiny, Seed: 42}
	jobs := make([]*Job, 0, 4)
	for i := 0; i < 4; i++ {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}

	// Exactly one execution may start; the other three workers must be
	// parked on the leader, not in BeforeRun.
	<-started
	select {
	case <-started:
		t.Fatal("a duplicate cell reached execution alongside the leader")
	case <-time.After(100 * time.Millisecond):
	}
	close(proceed)

	for _, job := range jobs {
		<-job.Done
		view, _ := s.Lookup(job.ID)
		if view.State != JobDone {
			t.Fatalf("job %s ended %s (%s)", job.ID, view.State, view.Error)
		}
	}
	snap := getMetrics(t, ts)
	if snap.RunsExecuted != 1 {
		t.Fatalf("runsExecuted = %d, want 1 (single-flight)", snap.RunsExecuted)
	}
}

func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}
