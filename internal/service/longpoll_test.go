package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// gatedServer starts a daemon whose single worker holds every cell in
// BeforeRun until release is called, and submits one cell to it.
func gatedServer(t *testing.T) (s *Server, ts *httptest.Server, id string, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	s, ts = newTestServer(t, Config{
		Workers:   1,
		BeforeRun: func(harness.CellSpec) { <-gate },
	})
	t.Cleanup(release) // runs before the server's own cleanup drains it
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	if len(sr.Jobs) != 1 || sr.Jobs[0].State.terminal() {
		t.Fatalf("gated submission: %+v", sr.Jobs)
	}
	return s, ts, sr.Jobs[0].ID, release
}

type polled struct {
	code    int
	view    JobView
	elapsed time.Duration
	at      time.Time
	err     error
}

// longPoll issues GET /v1/jobs/{id}?wait=<wait> in the background.
func longPoll(ts *httptest.Server, id, wait string) <-chan polled {
	ch := make(chan polled, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=" + wait)
		if err != nil {
			ch <- polled{err: err}
			return
		}
		defer resp.Body.Close()
		var p polled
		p.code = resp.StatusCode
		p.err = json.NewDecoder(resp.Body).Decode(&p.view)
		p.at = time.Now()
		p.elapsed = p.at.Sub(start)
		ch <- p
	}()
	return ch
}

// recv waits for a long-poll answer, failing the test if none arrives
// within limit — far below the 30 s wait the polls ask for, so only a
// poll released by the event under test can make it.
func recv(t *testing.T, ch <-chan polled, limit time.Duration) polled {
	t.Helper()
	select {
	case p := <-ch:
		if p.err != nil {
			t.Fatal(p.err)
		}
		if p.code != http.StatusOK {
			t.Fatalf("long-poll status %d", p.code)
		}
		return p
	case <-time.After(limit):
		t.Fatalf("long-poll still held after %v", limit)
		return polled{}
	}
}

// TestLongPollReturnsOnDone: a held poll answers as soon as its job
// settles, with the terminal view and its result.
func TestLongPollReturnsOnDone(t *testing.T) {
	s, ts, id, release := gatedServer(t)
	s.mu.Lock()
	done := s.jobs[id].Done
	s.mu.Unlock()

	ch := longPoll(ts, id, "30000")
	release()
	<-done
	settled := time.Now()
	p := recv(t, ch, 10*time.Second)
	if p.view.State != JobDone || len(p.view.Result) == 0 {
		t.Fatalf("long-poll answered %s with %d result bytes, want done with a result", p.view.State, len(p.view.Result))
	}
	if lag := p.at.Sub(settled); lag > time.Second {
		t.Fatalf("long-poll answered %v after the job settled", lag)
	}
}

// TestLongPollExpires: a poll whose wait runs out before the job
// settles answers 200 with the job's current, non-terminal view.
func TestLongPollExpires(t *testing.T) {
	_, ts, id, _ := gatedServer(t)
	p := recv(t, longPoll(ts, id, "100"), 10*time.Second)
	if p.view.State != JobQueued && p.view.State != JobRunning {
		t.Fatalf("expired long-poll answered state %s, want queued or running", p.view.State)
	}
	if p.elapsed < 100*time.Millisecond {
		t.Fatalf("long-poll answered after %v, before its 100ms wait", p.elapsed)
	}
}

// TestLongPollReleasedOnStop: a daemon that is killed or shut down
// answers its held polls at once instead of keeping them for the whole
// wait (graceful shutdown keeps running the job, so only the stopping
// signal can release the poll).
func TestLongPollReleasedOnStop(t *testing.T) {
	for name, stop := range map[string]func(*Server){
		"kill": (*Server).Kill,
		"shutdown": func(s *Server) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, ts, id, release := gatedServer(t)
			ch := longPoll(ts, id, "30000")
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				stop(s) // returns once the gated worker is released
			}()
			p := recv(t, ch, 10*time.Second)
			if p.view.State.terminal() {
				t.Fatalf("released poll answered terminal state %s while the job was still gated", p.view.State)
			}
			release()
			<-stopped
		})
	}
}

// TestParseWait: ?wait takes whole milliseconds, is capped at 30 s, and
// rejects anything else.
func TestParseWait(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"":        0,
		"0":       0,
		"250":     250 * time.Millisecond,
		"30000":   30 * time.Second,
		"3600000": 30 * time.Second,
	} {
		if got, err := parseWait(in); err != nil || got != want {
			t.Errorf("parseWait(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"bogus", "-1", "1.5", "1s"} {
		if _, err := parseWait(in); err == nil {
			t.Errorf("parseWait(%q) accepted", in)
		}
	}
}
