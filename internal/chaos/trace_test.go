package chaos

import (
	"fmt"
	"net/http"
	"os"
	"testing"
	"time"

	asfsim "repro"
	"repro/client"
	"repro/internal/backoff"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// dumpTracesOnFailure registers a cleanup that, when the test failed
// and ASFD_TRACE_DUMP names a path, writes every retained span — the
// client's ring first, then each node's current incarnation — as JSON
// lines. CI uploads the file as an artifact next to the chaos log, so
// a red soak ships the traces that explain it.
func dumpTracesOnFailure(t *testing.T, c *client.Client, nodes []*fleetNode) {
	t.Helper()
	path := os.Getenv("ASFD_TRACE_DUMP")
	if path == "" {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			t.Logf("trace dump: %v", err)
			return
		}
		defer f.Close()
		if err := c.Tracer().WriteJSONL(f); err != nil {
			t.Logf("trace dump (client): %v", err)
		}
		for _, n := range nodes {
			if n.srv == nil {
				continue
			}
			if err := n.srv.Tracer().WriteJSONL(f); err != nil {
				t.Logf("trace dump (%s): %v", n.name, err)
			}
		}
		t.Logf("trace dump: %s", path)
	})
}

// TestTracedHedgedKillResubmit is the tracing story under fire: a
// hedged CollectMatrix runs through latency-injecting proxies while one
// daemon is killed mid-run and never restarted. Every proxy delays
// every request well past the client's hedge delay, so each poll races
// a hedge; the kill strands at least one accepted job on a corpse, so
// its cell must be resubmitted elsewhere. The matrix must still settle
// byte-identically — and afterward a single client trace must tell the
// whole story: the winning hedge, the losing hedge, and the
// resubmission, all as spans under one trace ID.
func TestTracedHedgedKillResubmit(t *testing.T) {
	seed := fleetSeed(t)
	logf := chaosLog(t)
	fmt.Fprintf(logf, "=== traced hedged kill/resubmit seed=%#x ===\n", seed)

	// Deterministic fates: pure latency, no resets or black holes. The
	// 20ms delay on every hop dwarfs the client's 5ms hedge delay, so
	// every poll GET launches a hedge and a success always settles the
	// race (recording hedge.win and hedge.lose).
	nodes := make([]*fleetNode, 3)
	proxies := make([]*Proxy, 3)
	cfg := ProxyConfig{LatencyRate: 1.0, Latency: 20 * time.Millisecond}
	bases := make([]string, 3)
	for i := range nodes {
		nodes[i] = &fleetNode{name: fmt.Sprintf("node%d", i), dir: t.TempDir()}
		nodes[i].boot(t)
		p, err := NewProxy(nodes[i].addr, seed+uint64(i), cfg, logf)
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		bases[i] = p.URL()
		defer p.Close()
	}
	killed := -1
	defer func() {
		for i, n := range nodes {
			if i == killed {
				continue
			}
			n.hs.Close()
			n.srv.Kill()
		}
	}()

	copts := client.Options{
		HTTPClient:              &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		RequestTimeout:          time.Second,
		MaxAttempts:             6,
		Backoff:                 backoff.Config{BaseCycles: 5, MaxCycles: 50, Jitter: 0.3},
		Seed:                    seed,
		HedgeDelay:              5 * time.Millisecond,
		RetryBudget:             512,
		RetryBudgetRefillPerSec: 128,
		EjectAfter:              3,
		ProbeAfter:              time.Minute, // keep the corpse ejected for the whole run
		Tracer:                  obs.NewTracer(16384, nil),
	}
	c := client.New(bases[0]+","+bases[1]+","+bases[2], copts)
	dumpTracesOnFailure(t, c, nodes)

	mopts := harness.Options{
		Scale:       workloads.ScaleTiny,
		Seeds:       []uint64{1, 2},
		Cores:       8,
		Workloads:   []string{"kmeans", "genome"},
		Parallelism: 4,
	}
	dets := []asfsim.Detection{asfsim.DetectBaseline, asfsim.DetectSubBlock4}
	local, err := harness.Collect(mopts, dets)
	if err != nil {
		t.Fatal(err)
	}

	type matrixResult struct {
		m   *harness.Matrix
		err error
	}
	done := make(chan matrixResult, 1)
	go func() {
		m, err := c.CollectMatrix(testCtx(t), mopts, dets)
		done <- matrixResult{m, err}
	}()

	// Kill the first node observed holding accepted-but-unfinished work:
	// its clients are mid-poll, their results will never arrive, and
	// those cells must be resubmitted to the survivors.
	waitStart := time.Now()
	for killed < 0 && time.Since(waitStart) < 20*time.Second {
		for i, n := range nodes {
			if n.srv.QueueDepth()+n.srv.Running() > 0 {
				killed = i
				break
			}
		}
		if killed < 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if killed < 0 {
		t.Fatal("no node ever held pending work")
	}
	fmt.Fprintf(logf, "killing %s (%s) with work in flight\n", nodes[killed].name, nodes[killed].addr)
	nodes[killed].kill(t)

	res := <-done
	if res.err != nil {
		t.Fatalf("CollectMatrix with a node killed mid-run: %v", res.err)
	}
	if got, want := res.m.Fig1(), local.Fig1(); got != want {
		t.Fatalf("served Fig1 differs from local:\n--- served ---\n%s\n--- local ---\n%s", got, want)
	}

	// One trace must carry the whole recovery narrative: the hedge that
	// won, the hedge that lost, and the resubmission, under one ID.
	sums := c.Tracer().Summaries(0)
	if want := len(mopts.Workloads) * len(dets) * len(mopts.Seeds); len(sums) != want {
		t.Fatalf("client recorded %d traces, want %d", len(sums), want)
	}
	full := ""
	for _, sum := range sums {
		names := map[string]int{}
		for _, sp := range c.Tracer().Trace(sum.Trace) {
			names[sp.Name]++
		}
		if names["resubmit"] > 0 && names["hedge.win"] > 0 && names["hedge.lose"] > 0 {
			full = sum.Trace
			fmt.Fprintf(logf, "trace %s: %d resubmit, %d hedge.win, %d hedge.lose\n",
				sum.Trace, names["resubmit"], names["hedge.win"], names["hedge.lose"])
			break
		}
	}
	if full == "" {
		for _, sum := range sums {
			names := map[string]int{}
			for _, sp := range c.Tracer().Trace(sum.Trace) {
				names[sp.Name]++
			}
			t.Logf("trace %s spans: %v", sum.Trace, names)
		}
		t.Fatal("no single trace carries resubmit + hedge.win + hedge.lose")
	}

	// The resubmitted cell settled on a survivor: its trace is
	// retrievable from the fleet and covers the execute stage there.
	tr, err := c.ServerTrace(testCtx(t), full)
	if err != nil {
		t.Fatalf("ServerTrace(%s): %v", full, err)
	}
	seen := map[string]bool{}
	for _, sp := range tr.Spans {
		seen[sp.Name] = true
	}
	for _, stage := range []string{"admission", "execute", "respond"} {
		if !seen[stage] {
			t.Errorf("trace %s missing server stage %q on the survivors; got %v", full, stage, seen)
		}
	}
}
