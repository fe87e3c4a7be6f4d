package jsondec_test

import (
	"encoding/json"
	"net/http"
	"testing"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// FuzzUnmarshal: for arbitrary bytes decoded into a zero SubmitResponse,
// JobView or Record, jsondec.Unmarshal leaves the value and the error
// json.Unmarshal leaves, and never panics. The seeds are the bodies asfd
// sends: a cache hit answered by the submit, a long-poll that ends done,
// a queued view, a failed view whose error needs escapes, a 429
// envelope and an empty job list.
func FuzzUnmarshal(f *testing.F) {
	spec := harness.CellSpec{Workload: "kmeans", Detection: asfsim.DetectSubBlock4, Scale: workloads.ScaleTiny, Seed: 1}
	run, err := harness.RunCell(spec, nil)
	if err != nil {
		f.Fatal(err)
	}
	result, err := json.Marshal(stats.NewRecord(run))
	if err != nil {
		f.Fatal(err)
	}
	done := service.JobView{
		ID: "job-000004", Key: service.Key(spec), State: service.JobDone,
		Workload: "kmeans", Detection: "subblock-4", Scale: "tiny", Seed: 1, Result: result,
	}
	hit := done
	hit.CacheHit = true
	queued := service.JobView{ID: "job-000005", Key: done.Key, State: service.JobQueued,
		Workload: "vacation", Detection: "baseline", Scale: "tiny", Seed: 2}
	failed := service.JobView{ID: "job-000006", Key: done.Key, State: service.JobFailed,
		Workload: "intruder", Detection: "perfect", Scale: "tiny", Seed: 3,
		Error: "panic: <index> & \"out of range\"\n\tat cell\x01", ErrorKind: "panic"}
	for _, v := range []any{
		service.SubmitResponse{Jobs: []service.JobView{hit}},
		done, queued, failed,
		map[string]any{"error": "service: queue full", "retryAfterSeconds": 1},
		service.SubmitResponse{Jobs: []service.JobView{}},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add(result)
	f.Add([]byte(http.StatusText(http.StatusTooManyRequests)))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, typ := range servedTypes {
			sameAsEncodingJSON(t, typ, data)
		}
	})
}
