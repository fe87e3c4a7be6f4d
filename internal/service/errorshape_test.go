package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/workloads"
)

// checkErrorShape asserts the one contract every non-2xx response obeys:
// the body is a JSON object whose "error" field is a non-empty string,
// and backpressure statuses (429/503) carry a Retry-After header with a
// matching machine-readable retryAfterSeconds hint in the body.
func checkErrorShape(t *testing.T, label string, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading body: %v", label, err)
	}
	var doc struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retryAfterSeconds"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s (HTTP %d): body is not the structured envelope: %v\n%s",
			label, resp.StatusCode, err, raw)
	}
	if doc.Error == "" {
		t.Fatalf("%s (HTTP %d): envelope has an empty error field\n%s", label, resp.StatusCode, raw)
	}
	backpressure := resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable
	if backpressure {
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s (HTTP %d): no Retry-After header", label, resp.StatusCode)
		}
		if doc.RetryAfterSeconds <= 0 {
			t.Fatalf("%s (HTTP %d): no retryAfterSeconds hint in body\n%s",
				label, resp.StatusCode, raw)
		}
	} else if resp.Header.Get("Retry-After") != "" {
		t.Fatalf("%s (HTTP %d): Retry-After on a non-backpressure status", label, resp.StatusCode)
	}
	return doc.Error
}

func post(t *testing.T, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestErrorShapes sweeps every error path the API has and holds each to
// the structured-envelope contract — including the worker-pool-overflow
// 429 and the admission-shed 429, which double as the regression test
// for the "429 with no body schema" fix.
func TestErrorShapes(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	poison := harness.CellSpec{Workload: "kmeans", Scale: workloads.ScaleTiny, Seed: 777}
	s, ts := newTestServer(t, Config{
		Workers:          1,
		QueueDepth:       2,
		BreakerThreshold: 1,
		AdmissionTarget:  time.Millisecond,
		// Limit 4: at 3 in-system (1 running + 2 queued), interactive is
		// still admitted — and hits the static queue bound (the
		// worker-pool overflow 429) — while batch (fraction 3) is shed by
		// the admission controller (the adaptive 429).
		AdmissionMinLimit: 4,
		AdmissionMaxLimit: 4,
		BeforeRun: func(spec harness.CellSpec) {
			if spec.Seed == poison.Seed {
				panic("errorshape: deliberate failure")
			}
			<-gate
		},
	})
	cell := func(seed int) string {
		return fmt.Sprintf(`{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":%d}`, seed)
	}

	// Trip the per-key breaker first, while the worker is still free.
	job, err := s.Submit(poison)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done

	// 422: resubmitting the poisoned content address.
	checkErrorShape(t, "422 poisoned key", post(t, ts.URL+"/v1/jobs",
		`{"workload":"kmeans","detection":"baseline","scale":"tiny","seed":777}`, nil))

	// Occupy the worker and fill the 2-deep queue.
	for seed := 1; seed <= 3; seed++ {
		resp := post(t, ts.URL+"/v1/jobs", cell(seed), nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("setup seed %d: status %d", seed, resp.StatusCode)
		}
	}
	waitFor(t, func() bool { return s.Running() == 1 && s.QueueDepth() == 2 })

	// 429 (queue full): the worker-pool overflow path.
	if msg := checkErrorShape(t, "429 queue full", post(t, ts.URL+"/v1/jobs", cell(3), nil)); !strings.Contains(msg, "queue full") {
		t.Fatalf("queue-full 429 error = %q, want a queue-full message", msg)
	}

	// 429 (admission shed): batch priority is refused by the adaptive
	// controller before the static bound is even consulted.
	if msg := checkErrorShape(t, "429 admission shed", post(t, ts.URL+"/v1/jobs", cell(4),
		map[string]string{"X-ASF-Priority": "batch"})); !strings.Contains(msg, "overloaded") {
		t.Fatalf("admission-shed 429 error = %q, want an overload message", msg)
	}

	// 408: dead-on-arrival deadline.
	checkErrorShape(t, "408 expired deadline", post(t, ts.URL+"/v1/jobs", cell(5),
		map[string]string{"X-ASF-Deadline": time.Now().Add(-time.Minute).Format(time.RFC3339Nano)}))

	// 400s: malformed JSON, unknown field, bad enum, bad priority, bad
	// deadline, bad state filter, bad long-poll wait.
	checkErrorShape(t, "400 malformed JSON", post(t, ts.URL+"/v1/jobs", `{"workload":`, nil))
	checkErrorShape(t, "400 unknown field", post(t, ts.URL+"/v1/jobs", `{"wurkload":"kmeans"}`, nil))
	checkErrorShape(t, "400 bad detection", post(t, ts.URL+"/v1/jobs",
		`{"workload":"kmeans","detection":"psychic"}`, nil))
	checkErrorShape(t, "400 bad priority", post(t, ts.URL+"/v1/jobs", cell(6),
		map[string]string{"X-ASF-Priority": "bulk"}))
	checkErrorShape(t, "400 bad deadline", post(t, ts.URL+"/v1/jobs", cell(7),
		map[string]string{"X-ASF-Deadline": "soon"}))
	if resp, err := http.Get(ts.URL + "/v1/jobs?state=limbo"); err != nil {
		t.Fatal(err)
	} else {
		checkErrorShape(t, "400 bad state filter", resp)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/job-000000?wait=bogus"); err != nil {
		t.Fatal(err)
	} else {
		checkErrorShape(t, "400 bad long-poll wait", resp)
	}

	// 404s: unknown job, poll and cancel.
	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999999"); err != nil {
		t.Fatal(err)
	} else {
		checkErrorShape(t, "404 unknown job", resp)
	}
	checkErrorShape(t, "404 cancel unknown job", post(t, ts.URL+"/v1/jobs/job-999999/cancel", "", nil))

	// 503: draining. Release the gate so shutdown can finish the queue.
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	checkErrorShape(t, "503 draining", post(t, ts.URL+"/v1/jobs", cell(8), nil))
}
