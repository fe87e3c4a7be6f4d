package chaos

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	asfsim "repro"
	"repro/client"
	"repro/internal/backoff"
	"repro/internal/harness"
	"repro/internal/replica"
	"repro/internal/service"
	"repro/internal/workloads"
)

// replicaSeed fixes the corruption schedule on the replication channel.
// CI pins it via ASFD_REPLICA_SEED so a red replica soak reproduces
// from the log alone.
func replicaSeed(t *testing.T) uint64 {
	if v := os.Getenv("ASFD_REPLICA_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad ASFD_REPLICA_SEED %q: %v", v, err)
		}
		return n
	}
	return 0x5EED5
}

// TestReplicaPromotionSoak is the warm-standby endgame: a primary
// streams journal frames and settled results to a follower over a
// channel that silently flips bytes in transit, a client collects a
// figure matrix across both endpoints, and mid-matrix the replication
// link is cut and the primary killed. The follower — which must have
// detected and refused every corrupted frame, re-fetching until clean
// copies arrived — is promoted and finishes the matrix. The served
// figures must be byte-identical to an in-process harness.Collect,
// every key that settled before the cut must be served from replicated
// bytes without buying a single duplicate simulated cycle, and the
// corruption counters must show the integrity machinery actually fired.
func TestReplicaPromotionSoak(t *testing.T) {
	seed := replicaSeed(t)
	logf := chaosLog(t)
	fmt.Fprintf(logf, "=== replica soak seed=%#x ===\n", seed)

	// The primary: a real daemon behind a real listener, killable.
	primary := &fleetNode{name: "primary", dir: t.TempDir()}
	primary.boot(t)
	primaryURL := "http://" + primary.addr

	// The warm standby: Following mode (no workers until promotion),
	// with its own journal and snapshot.
	fdir := t.TempDir()
	fsrv, err := service.New(service.Config{
		Following:        true,
		Workers:          4,
		QueueDepth:       256,
		SnapshotPath:     filepath.Join(fdir, "cache.json"),
		SnapshotInterval: 25 * time.Millisecond,
		JournalPath:      filepath.Join(fdir, "journal.wal"),
		JobTimeout:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	followerURL := "http://" + fln.Addr().String()
	fhs := &http.Server{Handler: fsrv.Handler()}
	go fhs.Serve(fln)
	defer func() {
		fhs.Close()
		fsrv.Kill()
	}()

	// The replication channel lies: ~a third of stream and snapshot
	// responses arrive with one byte flipped, undetectable at the
	// transport layer. Frame CRCs and content digests are on the hook.
	ct := NewCorruptingTransport(seed+1, 0.35, logf)
	fol, err := replica.Start(replica.Config{
		PrimaryURL: primaryURL,
		Server:     fsrv,
		Client:     &http.Client{Transport: ct},
		Wait:       150 * time.Millisecond,
		Backoff:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop()

	// The in-process reference the served figures must match.
	mopts := harness.Options{
		Scale:       workloads.ScaleTiny,
		Seeds:       []uint64{1, 2, 3},
		Cores:       8,
		Workloads:   []string{"kmeans", "genome"},
		Parallelism: 4,
	}
	dets := []asfsim.Detection{asfsim.DetectBaseline, asfsim.DetectSubBlock4}
	local, err := harness.Collect(mopts, dets)
	if err != nil {
		t.Fatal(err)
	}

	copts := client.Options{
		HTTPClient:              &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		RequestTimeout:          2 * time.Second,
		MaxAttempts:             10,
		Backoff:                 backoff.Config{BaseCycles: 5, MaxCycles: 100, Jitter: 0.3},
		Seed:                    seed,
		RetryBudget:             512,
		RetryBudgetRefillPerSec: 64,
		EjectAfter:              3,
		ProbeAfter:              200 * time.Millisecond,
	}
	c := client.New(primaryURL+","+followerURL, copts)

	type matrixResult struct {
		m   *harness.Matrix
		err error
	}
	done := make(chan matrixResult, 1)
	go func() {
		m, err := c.CollectMatrix(testCtx(t), mopts, dets)
		done <- matrixResult{m, err}
	}()

	// Cut replication and kill the primary mid-matrix — but only once at
	// least one settled result has survived the corrupting channel and
	// landed in the follower's cache AND at least one payload-bearing
	// response has actually been corrupted in transit, so promotion has
	// both replicated state and a delivered fault to prove things about.
	waitStart := time.Now()
	for time.Since(waitStart) < 30*time.Second {
		if primary.srv.Metrics().SimCyclesExecuted() > 0 && len(fsrv.Cache().Keys()) > 0 && ct.Flips() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(fsrv.Cache().Keys()) == 0 {
		t.Fatal("no settled result ever replicated through the corrupting channel")
	}
	if ct.Flips() == 0 {
		t.Fatal("corrupting transport never fired on a payload-bearing response")
	}

	// The link goes first, while the primary still serves the client.
	// A batch fetched before the cut may still be in the follower's
	// hands; the sync loop is sequential — fetch, apply, fetch — so once
	// it has begun a request after the cut, everything the primary ever
	// delivered has been applied and the replicated set is final.
	ct.Sever()
	severedAt := ct.Starts()
	for drainStart := time.Now(); ct.Starts() == severedAt; {
		if time.Since(drainStart) > 10*time.Second {
			t.Fatal("follower sync loop never retried after the link was cut")
		}
		time.Sleep(time.Millisecond)
	}
	// Everything replicated before promotion is settled state: serving
	// it must never buy another cycle.
	settledKeys := make(map[string]bool)
	for _, k := range fsrv.Cache().Keys() {
		settledKeys[k] = true
	}

	fmt.Fprintf(logf, "killing primary (%s) with %d keys replicated\n", primary.addr, len(settledKeys))
	primary.kill(t)
	primary.checkCycleLedger(t, "post-kill")

	// A warm standby does no simulation work.
	if n := fsrv.Metrics().SimCyclesExecuted(); n != 0 {
		t.Errorf("follower executed %d cycles while following, want 0", n)
	}

	st, err := fsrv.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	fmt.Fprintf(logf, "promoted follower: %+v\n", st)
	select {
	case <-fol.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sync loop did not exit after promotion")
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("CollectMatrix across the failover: %v", res.err)
	}
	if got, want := res.m.Fig1(), local.Fig1(); got != want {
		t.Fatalf("served Fig1 differs from local:\n--- served ---\n%s\n--- local ---\n%s", got, want)
	}
	if got, want := res.m.Fig8(), local.Fig8(); got != want {
		t.Fatal("served Fig8 differs from local")
	}

	// The corrupting channel fired, and every corrupted frame or entry
	// was caught by CRC or content digest — detected, refused, re-fetched
	// — rather than applied. (Had one been applied, the figure comparison
	// above would already have failed; the counters prove the machinery
	// ran rather than the corruption missing.)
	flips := ct.Flips()
	detected := fsrv.Metrics().ReplCorruptFrames() + fsrv.Metrics().ReplDigestMismatches()
	fmt.Fprintf(logf, "transport flips=%d detected=%d (corrupt frames %d, digest mismatches %d)\n",
		flips, detected, fsrv.Metrics().ReplCorruptFrames(), fsrv.Metrics().ReplDigestMismatches())
	if detected == 0 {
		t.Error("no corrupted frame was ever detected despite transport flips")
	}

	// Zero-waste accounting on the promoted node: wait for it to go
	// idle, then require every cycle it executed to be accounted for by
	// a key that was NOT already replicated — settled keys served from
	// replicated bytes, at a price of zero duplicate cycles.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if fsrv.QueueDepth() == 0 && fsrv.Running() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var executed, fresh uint64
	for ledgerDeadline := time.Now().Add(5 * time.Second); ; {
		executed = fsrv.Metrics().SimCyclesExecuted()
		fresh = 0
		for _, k := range fsrv.Cache().Keys() {
			if settledKeys[k] {
				continue
			}
			if e, ok := fsrv.Cache().Get(k); ok {
				fresh += uint64(e.SimCycles)
			}
		}
		if executed == fresh || time.Now().After(ledgerDeadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if executed != fresh {
		t.Errorf("promoted follower executed %d cycles but its fresh keys account for %d — a settled key bought a duplicate simulation", executed, fresh)
	}

	cst := c.Stats()
	fmt.Fprintf(logf, "client stats: %+v\n", cst)
	if cst.RetryBudgetExhausted != 0 {
		t.Errorf("retry budget exhausted %d times during the failover; stats %+v", cst.RetryBudgetExhausted, cst)
	}
}
