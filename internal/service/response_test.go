package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TestResultBytesSurviveEveryResponseShape: one cell's result reaches
// the caller as the bytes the cache stores, whichever response carries
// it — a long-poll that ends when the simulation does, a plain GET of
// the done job, a cancel of it, and a submit answered from the cache.
// The caller digests view.Result exactly as decoded, with no compaction
// of its own.
func TestResultBytesSurviveEveryResponseShape(t *testing.T) {
	s, ts, id, release := gatedServer(t)
	ch := longPoll(ts, id, "30000")
	release()
	polled := recv(t, ch, 30*time.Second).view
	if polled.State != JobDone {
		t.Fatalf("long-poll answered %s, want done", polled.State)
	}
	entry, ok := s.cache.peek(polled.Key)
	if !ok {
		t.Fatalf("done job %s left no cache entry", id)
	}

	_, got := getJob(t, ts, id)
	resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var canceled JobView
	err = json.NewDecoder(resp.Body).Decode(&canceled)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	if len(sr.Jobs) != 1 || !sr.Jobs[0].CacheHit {
		t.Fatalf("resubmission was not answered from the cache: %+v", sr.Jobs)
	}

	for name, v := range map[string]JobView{
		"long-poll": polled,
		"get":       got,
		"cancel":    canceled,
		"cache-hit": sr.Jobs[0],
	} {
		if v.State != JobDone {
			t.Errorf("%s: state %s, want done", name, v.State)
			continue
		}
		if d := ResultDigest(v.Result); d != entry.Digest {
			t.Errorf("%s: result digest %.12s, the cache entry's is %.12s (%d bytes received, %d stored)",
				name, d, entry.Digest, len(v.Result), len(entry.Result))
		}
	}
}

// TestSplicedResponsesMatchMarshal: the spliced encodings of job views
// and submit responses are byte for byte what json.Marshal gives, for
// real records of the paper's headline detection systems and for views
// with no result.
func TestSplicedResponsesMatchMarshal(t *testing.T) {
	var done []JobView
	for _, wl := range []string{"kmeans", "vacation", "intruder"} {
		for _, det := range []asfsim.Detection{asfsim.DetectBaseline, asfsim.DetectSubBlock4, asfsim.DetectPerfect} {
			spec := harness.CellSpec{Workload: wl, Detection: det, Scale: workloads.ScaleTiny, Seed: 1}
			run, err := harness.RunCell(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			result, err := json.Marshal(stats.NewRecord(run))
			if err != nil {
				t.Fatal(err)
			}
			done = append(done, JobView{
				ID: "job-000001", Key: Key(spec), State: JobDone,
				Workload: wl, Detection: det.String(), Scale: "tiny", Seed: 1,
				CacheHit: len(done)%2 == 0, Result: result,
			})
		}
	}
	bare := []JobView{
		{ID: "job-000002", Key: "k", State: JobQueued, Workload: "kmeans", Detection: "baseline", Scale: "tiny", Seed: 3},
		{ID: "job-000003", State: JobFailed, Error: `panic: <index> & "out of range"`, ErrorKind: "panic"},
		{},
	}

	for _, v := range append(append([]JobView(nil), done...), bare...) {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendView(nil, v); string(got) != string(want) {
			t.Errorf("view %s/%s %s:\n got %s\nwant %s", v.Workload, v.Detection, v.State, got, want)
		}
	}

	for name, resp := range map[string]SubmitResponse{
		"all":        {Jobs: append(append([]JobView(nil), done...), bare...)},
		"one-hit":    {Jobs: done[:1]},
		"empty":      {Jobs: []JobView{}},
		"nil":        {},
		"queue-full": {Jobs: done[2:4], Error: "queue full", RetryAfterSeconds: 1},
	} {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSubmit(resp); string(got) != string(want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusAccepted, resp)
		if got := rec.Body.String(); got != string(want)+"\n" {
			t.Errorf("%s: writeJSON wrote\n %s\nwant %s", name, got, want)
		}
	}
}
