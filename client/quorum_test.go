package client

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/service"
)

// quorumFleet boots n real daemons and returns a client over all of
// them with quorum verification armed at the given size.
func quorumFleet(t *testing.T, n, quorum int, wrap func(i int, s *service.Server) *httptest.Server) *Client {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := service.New(service.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := wrap(i, s)
		t.Cleanup(ts.Close)
		t.Cleanup(s.Kill)
		urls[i] = ts.URL
	}
	opts := fastOpts()
	opts.Quorum = quorum
	return New(strings.Join(urls, ","), opts)
}

// TestQuorumUnanimous: three honest daemons agree byte-for-byte (the
// determinism contract), so quorum verification passes silently — no
// divergences, no ejections, correct record.
func TestQuorumUnanimous(t *testing.T) {
	c := quorumFleet(t, 3, 3, func(i int, s *service.Server) *httptest.Server {
		return httptest.NewServer(s.Handler())
	})
	ctx := testCtx(t)

	rec, err := c.RunCell(ctx, service.JobRequest{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "kmeans" || rec.Cycles == 0 {
		t.Fatalf("record looks empty: workload=%q cycles=%d", rec.Workload, rec.Cycles)
	}
	st := c.Stats()
	if st.QuorumDivergences != 0 || st.QuorumEjections != 0 {
		t.Fatalf("honest fleet produced divergences: %+v", st)
	}
}

// TestQuorumOutvotesLiar: one of three daemons lies (a digit of every
// result payload flipped in transit). The two honest daemons agree, the
// liar is the minority on every cell, and the caller gets the honest
// bytes — plus divergence counts and, after enough strikes, an
// ejection.
func TestQuorumOutvotesLiar(t *testing.T) {
	const liar = 1
	c := quorumFleet(t, 3, 3, func(i int, s *service.Server) *httptest.Server {
		if i == liar {
			return httptest.NewServer(chaos.LyingDaemon(s.Handler()))
		}
		return httptest.NewServer(s.Handler())
	})
	ctx := testCtx(t)

	// A local honest daemon supplies the ground truth for the same cells.
	truth, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Kill()
	truthSrv := httptest.NewServer(truth.Handler())
	defer truthSrv.Close()
	tc := New(truthSrv.URL, fastOpts())

	cells := []service.JobRequest{
		{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"},
		{Workload: "kmeans", Detection: "baseline", Scale: "tiny"},
		{Workload: "genome", Detection: "subblock-4", Scale: "tiny"},
	}
	for _, cell := range cells {
		got, err := c.RunCell(ctx, cell)
		if err != nil {
			t.Fatalf("%s/%s: %v", cell.Workload, cell.Detection, err)
		}
		want, err := tc.RunCell(ctx, cell)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.TxCommitted != want.TxCommitted {
			t.Fatalf("%s/%s: quorum returned wrong figures: got cycles=%d committed=%d want cycles=%d committed=%d",
				cell.Workload, cell.Detection, got.Cycles, got.TxCommitted, want.Cycles, want.TxCommitted)
		}
	}

	st := c.Stats()
	if st.QuorumDivergences < uint64(len(cells)) {
		t.Fatalf("liar diverged on every cell but only %d divergences recorded", st.QuorumDivergences)
	}
	// The liar votes minority once per cell; default EjectAfter is 3, so
	// three cells must produce at least one ejection event.
	if st.QuorumEjections == 0 {
		t.Fatalf("liar was never ejected after %d minority votes: %+v", len(cells), st)
	}
	if st.EndpointEjections < st.QuorumEjections {
		t.Fatalf("quorum ejections (%d) not mirrored into endpoint ejections (%d)",
			st.QuorumEjections, st.EndpointEjections)
	}
}

// TestQuorumAgreesAcrossResponseShapes: two honest daemons, one answering
// the cell from its cache inside the submit response and one answering it
// through a job view after simulating, agree: the vote compares the
// result's bytes, not the whitespace of the response that carried them.
func TestQuorumAgreesAcrossResponseShapes(t *testing.T) {
	var urls []string
	c := quorumFleet(t, 2, 2, func(i int, s *service.Server) *httptest.Server {
		ts := httptest.NewServer(s.Handler())
		urls = append(urls, ts.URL)
		return ts
	})
	ctx := testCtx(t)
	cell := service.JobRequest{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"}
	// Warm only the first daemon's cache.
	if _, err := New(urls[0], fastOpts()).RunCell(ctx, cell); err != nil {
		t.Fatal(err)
	}

	if _, err := c.RunCell(ctx, cell); err != nil {
		t.Fatalf("honest fleet did not agree: %v", err)
	}
	if st := c.Stats(); st.QuorumDivergences != 0 {
		t.Fatalf("honest fleet produced divergences: %+v", st)
	}
}

// TestQuorumSplitUnresolved: with only two endpoints and one of them
// lying, a 1-1 split has no majority and no tie-breaker to pull — the
// client must refuse to guess rather than return possibly-wrong bytes.
func TestQuorumSplitUnresolved(t *testing.T) {
	c := quorumFleet(t, 2, 2, func(i int, s *service.Server) *httptest.Server {
		if i == 1 {
			return httptest.NewServer(chaos.LyingDaemon(s.Handler()))
		}
		return httptest.NewServer(s.Handler())
	})
	ctx := testCtx(t)

	_, err := c.RunCell(ctx, service.JobRequest{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"})
	if err == nil {
		t.Fatal("1-1 split resolved to an answer; it must error")
	}
	if !strings.Contains(err.Error(), "quorum unresolved") {
		t.Fatalf("unexpected error for unresolved split: %v", err)
	}
	if st := c.Stats(); st.QuorumDivergences == 0 {
		t.Fatalf("split produced no divergence count: %+v", st)
	}
}

// TestQuorumSingleEndpointUntouched: quorum armed but only one endpoint
// configured — verification cannot run, and the ordinary path serves.
func TestQuorumSingleEndpointUntouched(t *testing.T) {
	s, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	opts := fastOpts()
	opts.Quorum = 3
	c := New(ts.URL, opts)
	if _, err := c.RunCell(testCtx(t), service.JobRequest{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.QuorumDivergences != 0 {
		t.Fatalf("single endpoint cannot diverge: %+v", st)
	}
}
