package replica

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

func newServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	s, err := service.New(cfg)
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

func submit(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Jobs) != 1 {
		t.Fatalf("accepted %d jobs, want 1", len(sr.Jobs))
	}
	return sr.Jobs[0].ID
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view struct {
			State  string          `json:"state"`
			Result json.RawMessage `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err == nil && view.State == want {
			return view.Result
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return nil
}

// TestFollowerSyncLoop runs the whole warm-standby lifecycle in
// process: the follower loop bootstraps off a primary that already has
// history (snapshot path), tails new work live (stream path), and exits
// on promotion — after which the promoted node serves the replicated
// results itself.
func TestFollowerSyncLoop(t *testing.T) {
	// Primary with pre-existing history beyond a small log window — two
	// settled cells outgrow three records — so the follower's first
	// contact is forced through the snapshot path. (The window is the
	// cache's size, and 3, not smaller, so the cache holds all three
	// cells of the test and one live job's two records can never outrun
	// the tailing follower later in the test.)
	primary, primaryTS := newServer(t, service.Config{Workers: 2, CacheEntries: 3})
	id1 := submit(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	wantResult := waitState(t, primaryTS, id1, "done")
	idOld := submit(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":42}`)
	waitState(t, primaryTS, idOld, "done")
	_ = primary

	followerSrv, followerTS := newServer(t, service.Config{Workers: 2, Following: true})
	f, err := Start(Config{
		PrimaryURL: primaryTS.URL,
		Server:     followerSrv,
		Wait:       200 * time.Millisecond,
		Backoff:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	// Wait out the snapshot bootstrap before submitting live work: the
	// snapshot deliberately carries settled keys as cache entries, not
	// terminal job records, so id2's job view only exists on the standby
	// if its lifecycle genuinely arrives frame-by-frame on the stream.
	bootDeadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(bootDeadline) && followerSrv.ReplNextApply() <= 1 {
		time.Sleep(5 * time.Millisecond)
	}
	if followerSrv.ReplNextApply() <= 1 {
		t.Fatalf("follower never bootstrapped from the snapshot, err=%v", f.Err())
	}
	if snaps := metricsDoc(t, primaryTS)["replSnapshotsServed"].(float64); snaps < 1 {
		t.Fatalf("bootstrap did not use the snapshot path (replSnapshotsServed=%v)", snaps)
	}

	// New work submitted after the follower caught up arrives via the
	// stream.
	id2 := submit(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":2}`)
	waitState(t, primaryTS, id2, "done")

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if followerSrv.ReplicationLag() == 0 && followerSrv.ReplNextApply() > 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lag := followerSrv.ReplicationLag(); lag != 0 {
		t.Fatalf("follower never caught up, lag=%d err=%v", lag, f.Err())
	}
	if err := f.Err(); err != nil {
		t.Fatalf("sync loop unhealthy after catch-up: %v", err)
	}

	// The job streamed live is visible on the standby with its result.
	gotResult := waitState(t, followerTS, id2, "done")
	if string(gotResult) == "" {
		t.Fatal("replicated job has no result")
	}

	// Promotion stops the loop on its own.
	if _, err := followerSrv.Promote(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sync loop did not exit on promotion")
	}

	// id1 settled before the follower attached; its job record was
	// trimmed out of the log window, but its result came over in the
	// snapshot — resubmitting the same cell on the promoted node is a
	// cache hit with byte-identical result and zero duplicate cycles.
	idHit := submit(t, followerTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	hitResult := waitState(t, followerTS, idHit, "done")
	if compact(t, hitResult) != compact(t, wantResult) {
		t.Fatal("replicated result differs from the primary's")
	}
	m := metricsDoc(t, followerTS)
	if m["cacheHits"].(float64) < 1 {
		t.Fatalf("settled key not served from the replicated cache: %v", m["cacheHits"])
	}
	if m["runsExecuted"].(float64) != 0 || m["simCyclesExecuted"].(float64) != 0 {
		t.Fatalf("promoted node re-simulated a settled key: runs=%v cycles=%v",
			m["runsExecuted"], m["simCyclesExecuted"])
	}

	// The promoted node accepts and executes fresh work.
	id3 := submit(t, followerTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":3}`)
	waitState(t, followerTS, id3, "done")
}

func compact(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf strings.Builder
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(b)
	return buf.String()
}

func metricsDoc(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFollowerSurvivesPrimaryOutage: a follower started before its
// primary is reachable converges once the primary appears.
func TestFollowerSurvivesPrimaryOutage(t *testing.T) {
	followerSrv, _ := newServer(t, service.Config{Workers: 1, Following: true})
	// A port that refuses connections.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	f, err := Start(Config{
		PrimaryURL: deadURL,
		Server:     followerSrv,
		Wait:       100 * time.Millisecond,
		Backoff:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if f.Err() != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.Err() == nil {
		t.Fatal("no error recorded against an unreachable primary")
	}
	// Still following, still stoppable.
	if !followerSrv.Following() {
		t.Fatal("outage flipped the follower out of following")
	}
}
