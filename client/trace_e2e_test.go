package client

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workloads"
)

// TestCollectMatrixTracedFleet is the tracing acceptance test: one
// CollectMatrix against a three-daemon fleet, with tracing on at both
// ends, must yield a retrievable end-to-end trace per job whose
// server side covers the six named pipeline stages — admission, queue,
// cache, journal, execute, respond — and whose client side records the
// routing and RPC story.
func TestCollectMatrixTracedFleet(t *testing.T) {
	var servers []*service.Server
	bases := ""
	for i := 0; i < 3; i++ {
		s, err := service.New(service.Config{
			Workers:     2,
			JournalPath: filepath.Join(t.TempDir(), "journal.wal"),
			Tracer:      obs.NewTracer(4096, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		servers = append(servers, s)
		if i > 0 {
			bases += ","
		}
		bases += ts.URL
	}

	c := New(bases, Options{
		Seed:   0xCE11,
		Tracer: obs.NewTracer(4096, nil),
	})

	mopts := harness.Options{
		Scale:       workloads.ScaleTiny,
		Seeds:       []uint64{1},
		Cores:       8,
		Workloads:   []string{"kmeans", "intruder"},
		Parallelism: 4,
	}
	dets := []asfsim.Detection{asfsim.DetectBaseline, asfsim.DetectSubBlock4}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.CollectMatrix(ctx, mopts, dets); err != nil {
		t.Fatal(err)
	}

	// One client-side trace per cell: 2 workloads x 2 detections.
	sums := c.Tracer().Summaries(0)
	if want := len(mopts.Workloads) * len(dets); len(sums) != want {
		t.Fatalf("client recorded %d traces, want %d: %+v", len(sums), want, sums)
	}

	for _, sum := range sums {
		// Client side: the trace must show routing and at least the
		// submit RPC plus one poll RPC.
		clientSeen := map[string]int{}
		for _, sp := range c.Tracer().Trace(sum.Trace) {
			clientSeen[sp.Name]++
		}
		if clientSeen["route"] == 0 || clientSeen["rpc"] < 2 {
			t.Errorf("trace %s client spans = %v, want route and >=2 rpc", sum.Trace, clientSeen)
		}

		// Server side, fetched back through the fleet: all six named
		// stages of the acceptance criteria.
		tr, err := c.ServerTrace(ctx, sum.Trace)
		if err != nil {
			t.Fatalf("ServerTrace(%s): %v", sum.Trace, err)
		}
		seen := map[string]bool{}
		for _, sp := range tr.Spans {
			seen[sp.Name] = true
		}
		for _, stage := range []string{"admission", "queue", "cache", "journal", "execute", "respond"} {
			if !seen[stage] {
				t.Errorf("trace %s missing server stage %q; got %v", sum.Trace, stage, seen)
			}
		}
	}

	// The fleet's rings collectively saw every trace the client minted.
	total := uint64(0)
	for _, s := range servers {
		rec, _ := s.Tracer().Counters()
		total += rec
	}
	if total == 0 {
		t.Fatal("no server recorded any spans")
	}
}
