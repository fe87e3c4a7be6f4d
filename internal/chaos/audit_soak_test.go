package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	asfsim "repro"
	"repro/client"
	"repro/internal/audit"
	"repro/internal/backoff"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/workloads"
)

// auditSeed fixes the scrub walk order, the sampling decisions, and the
// fault injection sites. CI pins it via ASFD_AUDIT_SEED so a red audit
// soak reproduces from the log alone.
func auditSeed(t *testing.T) uint64 {
	if v := os.Getenv("ASFD_AUDIT_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad ASFD_AUDIT_SEED %q: %v", v, err)
		}
		return n
	}
	return 0xA5D17
}

// auditCells is the sweep the audit soaks run: small, diverse, and
// enough entries that seeded flip selection has room to rotate.
func auditCells() []service.JobRequest {
	var cells []service.JobRequest
	for _, wl := range []string{"kmeans", "genome"} {
		for _, det := range []string{"baseline", "subblock-4"} {
			for _, seed := range []uint64{1, 2} {
				cells = append(cells, service.JobRequest{
					Workload: wl, Detection: det, Scale: "tiny", Seed: seed, Cores: 8,
				})
			}
		}
	}
	return cells
}

func auditClient(t *testing.T, bases string, quorum int) *client.Client {
	t.Helper()
	return client.New(bases, client.Options{
		HTTPClient:     &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		RequestTimeout: 10 * time.Second,
		MaxAttempts:    4,
		Backoff:        backoff.Config{BaseCycles: 5, MaxCycles: 50, Jitter: 0.3},
		EjectAfter:     3,
		ProbeAfter:     30 * time.Second, // an ejected liar stays benched for the whole test
		Quorum:         quorum,
	})
}

// quarantineRecords reads and decodes the audit quarantine paper trail.
func quarantineRecords(t *testing.T, path string) []audit.QuarantineRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatalf("reading quarantine file: %v", err)
	}
	var recs []audit.QuarantineRecord
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec audit.QuarantineRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("quarantine line does not decode: %v\n%s", err, line)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestAuditScrubSoak is the at-rest-corruption endgame: one asfd with
// the scrubber armed, killed and rebooted three times, with a seeded
// digit flip injected into two cache entries of its journal's checkpoint
// between each boot. Every injected flip must be detected
// (scrubCorruptions == injected), every quarantined entry must be
// repaired to bytes identical to the clean run, no corrupted byte may
// ever reach a client, and — outside the serve-guard cycle, where the
// recomputation is itself the repair — the production cycle ledger must
// stay at zero: integrity work is accounted to the audit counters, never
// to serving.
func TestAuditScrubSoak(t *testing.T) {
	seed := auditSeed(t)
	logf := chaosLog(t)
	fmt.Fprintf(logf, "=== audit scrub soak seed=%#x ===\n", seed)

	node := &fleetNode{name: "audit0", dir: t.TempDir(), tweak: func(cfg *service.Config) {
		// Armed (which also arms the serve-path guard) but with an interval
		// far beyond the test: passes are driven explicitly so every cycle
		// is deterministic in time as well as in order.
		cfg.ScrubInterval = time.Hour
		cfg.AuditSeed = seed
		cfg.AuditSampleRate = 1 // re-execute every clean entry, every pass
	}}
	node.boot(t)
	defer func() {
		node.hs.Close()
		node.srv.Kill()
	}()
	c := auditClient(t, "http://"+node.addr, 0)

	// Clean run: collect every cell and pin the canonical bytes.
	cells := auditCells()
	clean := make([][]byte, len(cells))
	for i, cell := range cells {
		rec, err := c.RunCell(testCtx(t), cell)
		if err != nil {
			t.Fatalf("clean run %s/%s/%d: %v", cell.Workload, cell.Detection, cell.Seed, err)
		}
		clean[i], err = json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	node.quiesce(t)
	cleanEntries := make(map[string]service.CacheEntry)
	for _, e := range node.srv.Cache().Entries() {
		cleanEntries[e.Key] = e
	}
	if len(cleanEntries) != len(cells) {
		t.Fatalf("clean run cached %d entries, want %d", len(cleanEntries), len(cells))
	}

	serveAll := func(phase string) {
		t.Helper()
		for i, cell := range cells {
			rec, err := c.RunCell(testCtx(t), cell)
			if err != nil {
				t.Fatalf("%s: %s/%s/%d: %v", phase, cell.Workload, cell.Detection, cell.Seed, err)
			}
			got, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, clean[i]) {
				t.Fatalf("%s: %s/%s/%d served wrong bytes:\ngot  %s\nwant %s",
					phase, cell.Workload, cell.Detection, cell.Seed, got, clean[i])
			}
		}
	}

	// The journal is the node's only durable file: its checkpoint holds
	// the cache entries.
	jPath := filepath.Join(node.dir, "journal.wal")
	qPath := jPath + ".audit-quarantine"
	totalInjected := 0

	for cycle := 1; cycle <= 3; cycle++ {
		node.kill(t)
		injected, err := FlipSnapshotResults(jPath, seed+uint64(cycle), 2)
		if err != nil {
			t.Fatalf("cycle %d: injecting journal flips: %v", cycle, err)
		}
		if injected != 2 {
			t.Fatalf("cycle %d: injected %d flips, want 2", cycle, injected)
		}
		totalInjected += injected
		node.boot(t)
		fmt.Fprintf(logf, "cycle %d: %d flips injected, node rebooted\n", cycle, injected)

		if cycle == 2 {
			// Serve-guard cycle: clients arrive BEFORE any scrub pass runs.
			// The serve-path guard must quarantine the corrupted entries and
			// recompute them as cache misses — the recomputation is the
			// repair, and no wrong byte leaves the daemon.
			serveAll("pre-scrub serve")
			node.quiesce(t)
			m := node.srv.Metrics()
			if got := m.ScrubCorruptions(); got != uint64(injected) {
				t.Fatalf("cycle %d: serve guard caught %d corruptions, want %d", cycle, got, injected)
			}
			// Exactly the quarantined cells were recomputed: the executed
			// cycles match their clean-run simulation costs, nothing more.
			var want uint64
			for _, k := range node.srv.AuditReport().RecentQuarantined {
				want += uint64(cleanEntries[k].SimCycles)
			}
			if got := m.SimCyclesExecuted(); got != want {
				t.Fatalf("cycle %d: %d cycles executed after guard repairs, want %d (the two corrupted cells)",
					cycle, got, want)
			}
			// The following pass finds a fully healed cache.
			if rep := node.srv.ScrubPass(); rep.Corruptions != 0 {
				t.Fatalf("cycle %d: pass after serve-guard repair still found %d corruptions", cycle, rep.Corruptions)
			}
		} else {
			// Scrub-first cycle: the pass must find every flip, repair by
			// re-execution, and account the work to the audit ledger only.
			rep := node.srv.ScrubPass()
			fmt.Fprintf(logf, "cycle %d: pass report %+v\n", cycle, rep)
			if rep.Scanned != len(cells) {
				t.Fatalf("cycle %d: scanned %d entries, want %d", cycle, rep.Scanned, len(cells))
			}
			if rep.Corruptions != injected {
				t.Fatalf("cycle %d: scrub found %d corruptions, injected %d", cycle, rep.Corruptions, injected)
			}
			if rep.Repairs != injected {
				t.Fatalf("cycle %d: scrub repaired %d of %d corruptions", cycle, rep.Repairs, injected)
			}
			if rep.Reexecuted != len(cells)-injected {
				t.Fatalf("cycle %d: re-executed %d clean entries, want %d", cycle, rep.Reexecuted, len(cells)-injected)
			}
			if got := node.srv.Metrics().SimCyclesExecuted(); got != 0 {
				t.Fatalf("cycle %d: audit repair leaked %d cycles into the production ledger", cycle, got)
			}
			// A second pass over the healed cache is quiet: full scan, full
			// re-execution, zero findings.
			rep2 := node.srv.ScrubPass()
			if rep2.Corruptions != 0 || rep2.Scanned != len(cells) || rep2.Reexecuted != len(cells) {
				t.Fatalf("cycle %d: second pass not clean: %+v", cycle, rep2)
			}
			serveAll("post-scrub serve")
			node.quiesce(t)
			if got := node.srv.Metrics().SimCyclesExecuted(); got != 0 {
				t.Fatalf("cycle %d: re-serving the healed cache bought %d duplicate cycles", cycle, got)
			}
		}

		// Repaired entries are byte-identical to the clean run, digest and
		// all — determinism makes repair exact, not approximate.
		entries := node.srv.Cache().Entries()
		if len(entries) != len(cells) {
			t.Fatalf("cycle %d: cache holds %d entries, want %d", cycle, len(entries), len(cells))
		}
		for _, e := range entries {
			want, ok := cleanEntries[e.Key]
			if !ok {
				t.Fatalf("cycle %d: cache grew unknown key %s", cycle, e.Key)
			}
			if !bytes.Equal(e.Result, want.Result) || e.Digest != want.Digest {
				t.Fatalf("cycle %d: repaired entry %s is not byte-identical to the clean run", cycle, e.Key)
			}
		}

		// The quarantine paper trail grows by exactly the injected flips.
		recs := quarantineRecords(t, qPath)
		if len(recs) != totalInjected {
			t.Fatalf("cycle %d: quarantine file has %d records, want %d", cycle, len(recs), totalInjected)
		}
		for _, rec := range recs {
			if rec.Reason != "digest-mismatch" {
				t.Fatalf("cycle %d: unexpected quarantine reason %q", cycle, rec.Reason)
			}
			if rec.Source != "cache" && rec.Source != "serve" {
				t.Fatalf("cycle %d: unexpected quarantine source %q", cycle, rec.Source)
			}
		}
	}
	fmt.Fprintf(logf, "audit soak: all %d injected flips detected and repaired across 3 cycles\n", totalInjected)
}

// TestAuditJournalScrub corrupts the live journal at rest — two mid-file
// lines get a byte flipped while the daemon runs — and requires the next
// scrub pass to detect exactly those records, quarantine them, and
// repair by rotation, without touching the cache or the cycle ledger.
func TestAuditJournalScrub(t *testing.T) {
	seed := auditSeed(t) + 100
	node := &fleetNode{name: "auditj", dir: t.TempDir(), tweak: func(cfg *service.Config) {
		cfg.ScrubInterval = time.Hour
		cfg.AuditSeed = seed
		// No background snapshots: the journal keeps its settled records
		// until the scrubber itself compacts them, so the flips stay put.
		cfg.SnapshotInterval = 0
	}}
	node.boot(t)
	defer func() {
		node.hs.Close()
		node.srv.Kill()
	}()
	c := auditClient(t, "http://"+node.addr, 0)

	cells := auditCells()[:4]
	for _, cell := range cells {
		if _, err := c.RunCell(testCtx(t), cell); err != nil {
			t.Fatalf("%s/%s: %v", cell.Workload, cell.Detection, err)
		}
	}
	node.quiesce(t)
	executed := node.srv.Metrics().SimCyclesExecuted()

	jPath := filepath.Join(node.dir, "journal.wal")
	flipped, err := FlipJournalLines(jPath, seed, 2)
	if err != nil {
		t.Fatalf("injecting journal flips: %v", err)
	}
	if flipped != 2 {
		t.Fatalf("flipped %d journal lines, want 2", flipped)
	}

	rep := node.srv.ScrubPass()
	if rep.JournalBadRecords != flipped {
		t.Fatalf("scrub found %d bad journal records, injected %d: %+v", rep.JournalBadRecords, flipped, rep)
	}
	if rep.Corruptions != flipped {
		t.Fatalf("journal corruption not counted: %+v", rep)
	}
	if rep.Repairs < flipped {
		t.Fatalf("journal corruption not repaired: %+v", rep)
	}

	// Repair is rotation: the journal on disk is clean again, and the next
	// pass confirms it.
	if rep2 := node.srv.ScrubPass(); rep2.JournalBadRecords != 0 || rep2.Corruptions != 0 {
		t.Fatalf("pass after journal repair still found corruption: %+v", rep2)
	}

	// The paper trail names the journal, and the cache was never touched:
	// re-serving is all hits, no new cycles.
	recs := quarantineRecords(t, jPath+".audit-quarantine")
	if len(recs) != flipped {
		t.Fatalf("quarantine file has %d records, want %d", len(recs), flipped)
	}
	for _, rec := range recs {
		if rec.Reason != "journal-crc" || rec.Source != "journal" {
			t.Fatalf("unexpected quarantine record %+v", rec)
		}
	}
	for _, cell := range cells {
		if _, err := c.RunCell(testCtx(t), cell); err != nil {
			t.Fatalf("re-serving %s/%s: %v", cell.Workload, cell.Detection, err)
		}
	}
	node.quiesce(t)
	if got := node.srv.Metrics().SimCyclesExecuted(); got != executed {
		t.Fatalf("journal scrub/repair disturbed the cache: %d cycles executed, want %d", got, executed)
	}
}

// TestQuorumLyingDaemon is the Byzantine soak: a three-daemon fleet with
// one member lying (a digit of every result payload flipped in transit)
// and a quorum-verifying client collecting the full figure matrix. The
// matrix must come out byte-identical to an in-process harness.Collect —
// the liar outvoted on every cell it touches — and the client must have
// noticed (divergences) and benched the liar (ejection).
func TestQuorumLyingDaemon(t *testing.T) {
	logf := chaosLog(t)
	nodes := make([]*fleetNode, 3)
	bases := make([]string, 3)
	for i := range nodes {
		nodes[i] = &fleetNode{name: fmt.Sprintf("qnode%d", i), dir: t.TempDir()}
		if i == 1 {
			nodes[i].wrap = LyingDaemon
		}
		nodes[i].boot(t)
		bases[i] = "http://" + nodes[i].addr
	}
	defer func() {
		for _, n := range nodes {
			n.hs.Close()
			n.srv.Kill()
		}
	}()
	fmt.Fprintf(logf, "=== quorum lying-daemon soak: liar at %s ===\n", bases[1])

	c := auditClient(t, strings.Join(bases, ","), 3)

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

	served, err := c.CollectMatrix(testCtx(t), mopts, dets)
	if err != nil {
		t.Fatalf("CollectMatrix against a lying fleet member: %v", err)
	}
	if got, want := served.Fig1(), local.Fig1(); got != want {
		t.Fatalf("quorum let the liar through — served Fig1 differs from local:\n--- served ---\n%s\n--- local ---\n%s", got, want)
	}
	if got, want := served.Fig8(), local.Fig8(); got != want {
		t.Fatal("quorum let the liar through — served Fig8 differs from local")
	}

	st := c.Stats()
	fmt.Fprintf(logf, "quorum stats: %+v\n", st)
	if st.QuorumDivergences == 0 {
		t.Fatalf("a lying daemon produced no divergences: %+v", st)
	}
	if st.QuorumEjections == 0 {
		t.Fatalf("the liar was never ejected: %+v", st)
	}
	if st.EndpointEjections < st.QuorumEjections {
		t.Fatalf("quorum ejections (%d) not mirrored into endpoint ejections (%d)",
			st.QuorumEjections, st.EndpointEjections)
	}
}
