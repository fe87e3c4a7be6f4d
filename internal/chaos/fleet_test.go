package chaos

import (
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	asfsim "repro"
	"repro/client"
	"repro/internal/backoff"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workloads"
)

// fleetSeed fixes the per-proxy fault schedules. CI pins it via
// ASFD_FLEET_SEED so a red fleet soak reproduces from the log alone.
func fleetSeed(t *testing.T) uint64 {
	if v := os.Getenv("ASFD_FLEET_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad ASFD_FLEET_SEED %q: %v", v, err)
		}
		return n
	}
	return 0xF1EE7
}

// fleetNode is one asfd instance: a real service.Server behind a real
// TCP listener, killable and restartable on the same address with its
// snapshot and journal intact, plus the cycle ledger for the current
// incarnation.
type fleetNode struct {
	name string
	dir  string
	addr string // pinned after the first boot so restarts reuse it

	// tweak, when set, adjusts the boot Config (the audit soaks arm the
	// scrubber and pin its seed); wrap, when set, wraps the HTTP handler
	// (the quorum soak turns one node into a lying daemon).
	tweak func(cfg *service.Config)
	wrap  func(h http.Handler) http.Handler

	srv *service.Server
	hs  *http.Server

	startKeys map[string]bool // cache keys present when this incarnation booted
}

func (n *fleetNode) boot(t *testing.T) {
	t.Helper()
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 40; i++ { // a restart can race the old socket's teardown
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("%s: rebinding %s: %v", n.name, addr, err)
	}
	n.addr = ln.Addr().String()
	cfg := service.Config{
		Workers:          2,
		QueueDepth:       128,
		SnapshotPath:     filepath.Join(n.dir, "cache.json"),
		SnapshotInterval: 25 * time.Millisecond,
		JournalPath:      filepath.Join(n.dir, "journal.wal"),
		JobTimeout:       30 * time.Second,
		Tracer:           obs.NewTracer(8192, nil),
	}
	if n.tweak != nil {
		n.tweak(&cfg)
	}
	n.srv, err = service.New(cfg)
	if err != nil {
		t.Fatalf("%s: starting server: %v", n.name, err)
	}
	n.startKeys = make(map[string]bool)
	for _, k := range n.srv.Cache().Keys() {
		n.startKeys[k] = true
	}
	var h http.Handler = n.srv.Handler()
	if n.wrap != nil {
		h = n.wrap(h)
	}
	n.hs = &http.Server{Handler: h}
	go n.hs.Serve(ln)
}

// kill stops the node as a crash would look from the network: the
// listener and every connection close first, so no caller hears from it
// again, and only then does it checkpoint and die. A checkpoint first
// would keep answering long-polls for as long as its fsync takes.
func (n *fleetNode) kill(t *testing.T) {
	t.Helper()
	n.hs.Close()
	if err := n.srv.Persist(); err != nil {
		t.Logf("%s: persist before kill: %v", n.name, err)
	}
	n.srv.Kill()
}

// checkCycleLedger is the zero-waste invariant, per incarnation: every
// simulated cycle this server executed is accounted for by a cache
// entry that appeared during the incarnation. Retries, resubmissions
// and duplicate submissions may hit the server freely — single-flight
// and content addressing must absorb them without buying a second
// execution of any cell. Polls briefly because a worker can still be
// inside its finish sequence when we first look.
func (n *fleetNode) checkCycleLedger(t *testing.T, phase string) {
	t.Helper()
	var executed, fresh uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		executed = n.srv.Metrics().SimCyclesExecuted()
		fresh = 0
		for _, k := range n.srv.Cache().Keys() {
			if n.startKeys[k] {
				continue
			}
			if e, ok := n.srv.Cache().Get(k); ok {
				fresh += uint64(e.SimCycles)
			}
		}
		if executed == fresh || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if executed != fresh {
		t.Errorf("%s: %s executed %d cycles but its new cache entries account for %d — some retry or resubmission bought a duplicate simulation",
			phase, n.name, executed, fresh)
	}
}

// quiesce waits for the node to have nothing queued or running.
func (n *fleetNode) quiesce(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if n.srv.QueueDepth() == 0 && n.srv.Running() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s: never quiesced (%d queued, %d running)", n.name, n.srv.QueueDepth(), n.srv.Running())
}

// keylessPreferred mirrors the client's rendezvous ordering for
// keyless requests (the fnv64a of "|"+base), so the test can kill the
// exact endpoint the client will try first and make the
// failover/ejection assertions deterministic.
func keylessPreferred(bases []string) int {
	best, bestW := 0, uint64(0)
	order := append([]string(nil), bases...)
	sort.Strings(order) // tie-break like the client: larger weight, then base
	for i, b := range bases {
		h := fnv.New64a()
		h.Write([]byte{'|'})
		h.Write([]byte(b))
		if w := h.Sum64(); w > bestW || (w == bestW && b < bases[best]) {
			best, bestW = i, w
		}
	}
	return best
}

// TestFleetSoak is the overload-and-partition endgame: three asfd
// instances, each behind a seeded chaos proxy dealing latency, resets,
// black holes, torn responses and a one-way partition, with one
// instance killed and restarted while a hedged multi-endpoint client
// collects a figure matrix across the fleet. The matrix must settle
// exactly once — figures byte-identical to an in-process
// harness.Collect, every executed cycle accounted for by a new cache
// entry on the server that ran it — with the client's retries bounded
// by its budget and its failover machinery demonstrably exercised.
func TestFleetSoak(t *testing.T) {
	seed := fleetSeed(t)
	logf := chaosLog(t)
	fmt.Fprintf(logf, "=== fleet soak seed=%#x ===\n", seed)

	// Three nodes, each behind its own chaos proxy.
	nodes := make([]*fleetNode, 3)
	proxies := make([]*Proxy, 3)
	cfg := ProxyConfig{
		LatencyRate: 0.25, Latency: 80 * time.Millisecond,
		ResetRate: 0.10, BlackholeRate: 0.05, PartialRate: 0.05,
		Hold: time.Second,
	}
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
	defer func() {
		for _, n := range nodes {
			n.hs.Close()
			n.srv.Kill()
		}
	}()

	// The hedged, budgeted, multi-endpoint client under test. Keep-alives
	// are off so every request is a fresh connection — and a fresh fate.
	copts := client.Options{
		HTTPClient:              &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		RequestTimeout:          time.Second,
		MaxAttempts:             10,
		Backoff:                 backoff.Config{BaseCycles: 5, MaxCycles: 100, Jitter: 0.3},
		Seed:                    seed,
		HedgeDelay:              25 * time.Millisecond,
		RetryBudget:             512,
		RetryBudgetRefillPerSec: 64,
		EjectAfter:              3,
		ProbeAfter:              300 * time.Millisecond,
		Tracer:                  obs.NewTracer(16384, nil),
	}
	c := client.New(bases[0]+","+bases[1]+","+bases[2], copts)
	dumpTracesOnFailure(t, c, nodes)
	start := time.Now()

	if _, err := c.Health(testCtx(t)); err != nil {
		t.Fatalf("warm-up health check: %v", err)
	}

	// The in-process reference the served figures must match.
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

	// Let the matrix make some progress, then kill the endpoint the
	// client prefers for keyless requests — chosen so the health checks
	// below hit the corpse first every time, making the failover and
	// ejection assertions deterministic.
	victim := keylessPreferred(bases)
	partitioned := (victim + 1) % len(nodes)
	progress := func() uint64 {
		var runs uint64
		for _, n := range nodes {
			snap := n.srv.Metrics()
			runs += snap.SimCyclesExecuted()
		}
		return runs
	}
	waitStart := time.Now()
	for progress() == 0 && time.Since(waitStart) < 20*time.Second {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Fprintf(logf, "killing %s (%s)\n", nodes[victim].name, nodes[victim].addr)
	nodes[victim].kill(t)
	nodes[victim].checkCycleLedger(t, "post-kill")

	// Keyless requests prefer the corpse: each health check fails over,
	// and the third consecutive failure ejects the endpoint.
	for i := 0; i < 4; i++ {
		if _, err := c.Health(testCtx(t)); err != nil {
			t.Fatalf("health check %d with one node down: %v", i, err)
		}
	}
	if st := c.Stats(); st.Failovers == 0 || st.EndpointEjections == 0 {
		t.Fatalf("stats after killing the preferred endpoint = %+v, want failovers > 0 and at least one ejection", st)
	}

	// A one-way partition on a second node: its requests execute but the
	// responses vanish, so only resubmission + content-addressed dedup
	// keep the ledger clean.
	proxies[partitioned].SetPartition(PartitionOneWay)
	time.Sleep(250 * time.Millisecond)
	proxies[partitioned].SetPartition(PartitionOff)

	// Resurrect the victim on its old address with its snapshot and
	// journal; the client's probe re-admits it after ProbeAfter.
	nodes[victim].boot(t)
	fmt.Fprintf(logf, "restarted %s (%s)\n", nodes[victim].name, nodes[victim].addr)

	res := <-done
	if res.err != nil {
		t.Fatalf("CollectMatrix across the chaotic fleet: %v", res.err)
	}
	if got, want := res.m.Fig1(), local.Fig1(); got != want {
		t.Fatalf("served Fig1 differs from local:\n--- served ---\n%s\n--- local ---\n%s", got, want)
	}
	if got, want := res.m.Fig8(), local.Fig8(); got != want {
		t.Fatal("served Fig8 differs from local")
	}

	// Bounded retries: the budget was never exhausted, and the retries
	// spent fit inside capacity plus refill over the elapsed window.
	st := c.Stats()
	elapsed := time.Since(start)
	fmt.Fprintf(logf, "client stats: %+v (elapsed %v)\n", st, elapsed)
	if st.RetryBudgetExhausted != 0 {
		t.Errorf("retry budget exhausted %d times during the soak; stats %+v", st.RetryBudgetExhausted, st)
	}
	bound := uint64(copts.RetryBudget) + uint64(copts.RetryBudgetRefillPerSec*elapsed.Seconds()) + 1
	if st.RetriesSpent > bound {
		t.Errorf("retriesSpent %d exceeds the budget bound %d", st.RetriesSpent, bound)
	}
	if st.HedgesLaunched == 0 {
		t.Errorf("no hedges launched across %v of latency/blackhole fates; stats %+v", elapsed, st)
	}

	// Exactly-once accounting, every surviving incarnation.
	for _, n := range nodes {
		n.quiesce(t)
		n.checkCycleLedger(t, "final")
	}
	for i, p := range proxies {
		fmt.Fprintf(logf, "%s proxy counts: %+v\n", nodes[i].name, p.Counts())
	}
}
