package asfsim_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	asfsim "repro"
	"repro/client"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/stats"
)

var regenLedger = flag.Bool("regen", false, "rewrite testdata/digests.json from the current simulator")

// ledgerPath is the whole-matrix result ledger: the service.ResultDigest of
// the canonical stats.Record bytes of every ledger cell.
const ledgerPath = "testdata/digests.json"

// ledgerCell is one cell of the digest ledger.
type ledgerCell struct {
	label string
	spec  harness.CellSpec
}

// smallLedgerCells are the ledger's ScaleSmall (workload, detection,
// seed) combos, spread over every detection family; they are
// TestNeutralRobustnessIsBitIdentical's cells.
var smallLedgerCells = []struct {
	workload  string
	detection asfsim.Detection
	seed      uint64
}{
	{"kmeans", asfsim.DetectBaseline, 1},
	{"kmeans", asfsim.DetectSubBlock4, 1},
	{"vacation", asfsim.DetectBaseline, 2},
	{"intruder", asfsim.DetectSubBlock8, 3},
	{"ssca2", asfsim.DetectSignature, 1},
	{"labyrinth", asfsim.DetectWAROnly, 1},
	{"genome", asfsim.DetectSubBlock16, 5},
	{"scalparc", asfsim.DetectBaseline, 2},
	{"apriori", asfsim.DetectSubBlock2, 1},
}

// ledgerCells lists the ledger: every paper workload × every detection
// system × seeds {1,2,3} at ScaleTiny, plus smallLedgerCells with every
// robustness knob set explicitly to its neutral value: zero fault
// rates, the exponential retry policy and a passive watchdog window
// (which also pins the watchdog's tick order).
func ledgerCells() []ledgerCell {
	var out []ledgerCell
	for _, wl := range asfsim.Workloads() {
		for _, d := range asfsim.AllDetections {
			for seed := uint64(1); seed <= 3; seed++ {
				out = append(out, ledgerCell{
					label: fmt.Sprintf("%s/%s/tiny/%d", wl, d, seed),
					spec:  harness.CellSpec{Workload: wl, Detection: d, Scale: asfsim.ScaleTiny, Seed: seed},
				})
			}
		}
	}
	for _, c := range smallLedgerCells {
		out = append(out, ledgerCell{
			label: fmt.Sprintf("%s/%s/small/%d/wd100000", c.workload, c.detection, c.seed),
			spec: harness.CellSpec{Workload: c.workload, Detection: c.detection, Scale: asfsim.ScaleSmall, Seed: c.seed,
				Fault:    asfsim.FaultConfig{},
				Retry:    asfsim.RetryConfig{Kind: asfsim.RetryExponential},
				Watchdog: asfsim.WatchdogConfig{Window: 100_000}},
		})
	}
	return out
}

// shortLedgerCells is the -short subset: seed 1 of the tiny cells and
// four of the small ones, skipping the two slowest (kmeans).
func shortLedgerCells() []ledgerCell {
	var out []ledgerCell
	small := 0
	for _, c := range ledgerCells() {
		switch {
		case c.spec.Scale == asfsim.ScaleTiny && c.spec.Seed == 1:
			out = append(out, c)
		case c.spec.Scale == asfsim.ScaleSmall:
			if small >= 2 && small < 6 {
				out = append(out, c)
			}
			small++
		}
	}
	return out
}

// localDigest runs c in-process and digests its canonical result bytes,
// the bytes asfd caches and serves.
func localDigest(t *testing.T, c ledgerCell) (string, *stats.Run) {
	t.Helper()
	r, err := harness.RunCell(c.spec, nil)
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	b, err := json.Marshal(stats.NewRecord(r))
	if err != nil {
		t.Fatal(err)
	}
	return service.ResultDigest(b), r
}

func loadLedger(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("reading ledger (regenerate with go test -run TestDigestLedger -regen .): %v", err)
	}
	var ledger map[string]string
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatalf("decoding %s: %v", ledgerPath, err)
	}
	return ledger
}

// TestDigestLedger checks the ledger's ScaleTiny cells' result bytes
// against the committed digests locally (the ScaleSmall ones are
// TestNeutralRobustnessIsBitIdentical's), and the -short subset through
// an in-process asfd, which must serve the same bytes. Any mismatch is a
// result change. Only -regen rewrites the ledger.
func TestDigestLedger(t *testing.T) {
	if *regenLedger {
		cells := ledgerCells()
		ledger := make(map[string]string, len(cells))
		for _, c := range cells {
			ledger[c.label], _ = localDigest(t, c)
		}
		data, err := json.MarshalIndent(ledger, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(ledger), ledgerPath)
		return
	}
	ledger := loadLedger(t)
	if want := len(ledgerCells()); len(ledger) != want {
		t.Fatalf("ledger holds %d cells, the ledger set has %d", len(ledger), want)
	}

	cells := ledgerCells()
	if testing.Short() {
		cells = shortLedgerCells()
	}
	for _, c := range cells {
		if c.spec.Scale != asfsim.ScaleTiny {
			continue
		}
		if got, _ := localDigest(t, c); got != ledger[c.label] {
			t.Errorf("%s: local digest %.12s, ledger %.12s", c.label, got, ledger[c.label])
		}
	}

	served := shortLedgerCells()
	s, err := service.New(service.Config{Workers: 2, QueueDepth: len(served)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Kill()
	cl := client.New(ts.URL, client.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	ids := make([]string, len(served))
	for i, c := range served {
		req := service.JobRequest{
			Workload:       c.spec.Workload,
			Detection:      c.spec.Detection.String(),
			Scale:          c.spec.Scale.String(),
			Seed:           c.spec.Seed,
			WatchdogWindow: c.spec.Watchdog.Window,
		}
		view, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatalf("%s: submit: %v", c.label, err)
		}
		ids[i] = view.ID
	}
	for i, c := range served {
		view, err := cl.Wait(ctx, ids[i])
		if err != nil {
			t.Fatalf("%s: wait: %v", c.label, err)
		}
		if view.State != service.JobDone {
			t.Fatalf("%s: job ended %s: %s", c.label, view.State, view.Error)
		}
		if got := service.ResultDigest(view.Result); got != ledger[c.label] {
			t.Errorf("%s: served digest %.12s, ledger %.12s", c.label, got, ledger[c.label])
		}
	}
}

// TestNeutralRobustnessIsBitIdentical runs the ledger's ScaleSmall
// cells, whose specs set every robustness knob to its neutral value, and
// requires their ledger digests and no robustness activity: no spurious
// aborts, no early fallbacks, no watchdog boosts. Any drift means the
// fault/retry/watchdog subsystem perturbed a run it was configured to
// stay out of.
func TestNeutralRobustnessIsBitIdentical(t *testing.T) {
	ledger := loadLedger(t)
	cells := ledgerCells()
	if testing.Short() {
		cells = shortLedgerCells()
	}
	for _, c := range cells {
		if c.spec.Scale != asfsim.ScaleSmall {
			continue
		}
		t.Run(fmt.Sprintf("%s-%s-seed%d", c.spec.Workload, c.spec.Detection, c.spec.Seed), func(t *testing.T) {
			got, r := localDigest(t, c)
			if got != ledger[c.label] {
				t.Errorf("%s: local digest %.12s, ledger %.12s", c.label, got, ledger[c.label])
			}
			if r.SpuriousAborts != 0 || r.FallbacksEarly != 0 || r.WatchdogBoosts != 0 {
				t.Errorf("neutral config produced robustness activity: spurious=%d early=%d boosts=%d",
					r.SpuriousAborts, r.FallbacksEarly, r.WatchdogBoosts)
			}
		})
	}
}

// TestResultsIndependentOfHostScheduler runs the ledger's ScaleTiny cells
// under one and under four OS threads: simulated threads hand control to
// each other directly, so the Go scheduler's choices must never reach a
// result.
func TestResultsIndependentOfHostScheduler(t *testing.T) {
	ledger := loadLedger(t)
	var tiny []ledgerCell
	for _, c := range ledgerCells() {
		if c.spec.Scale == asfsim.ScaleTiny && (!testing.Short() || c.spec.Seed == 1) {
			tiny = append(tiny, c)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var bad []string
		for _, c := range tiny {
			if got, _ := localDigest(t, c); got != ledger[c.label] {
				bad = append(bad, c.label)
			}
		}
		sort.Strings(bad)
		if len(bad) > 0 {
			t.Errorf("GOMAXPROCS(%d): %d cells drifted from the ledger: %v", procs, len(bad), bad)
		}
	}
}
