package sim_test

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ledgerSpecs parses the cell labels of the digest ledger
// ("workload/detection/scale/seed[/wd<window>]") into cell specs, in label
// order.
func ledgerSpecs(t *testing.T) ([]string, map[string]harness.CellSpec) {
	t.Helper()
	data, err := os.ReadFile("../../testdata/digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger map[string]string
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatal(err)
	}
	labels := make([]string, 0, len(ledger))
	specs := make(map[string]harness.CellSpec, len(ledger))
	for label := range ledger {
		parts := strings.Split(label, "/")
		if len(parts) < 4 || len(parts) > 5 {
			t.Fatalf("ledger label %q: want workload/detection/scale/seed[/wd<window>]", label)
		}
		d, err := asfsim.ParseDetection(parts[1])
		if err != nil {
			t.Fatalf("ledger label %q: %v", label, err)
		}
		sc, err := asfsim.ParseScale(parts[2])
		if err != nil {
			t.Fatalf("ledger label %q: %v", label, err)
		}
		seed, err := strconv.ParseUint(parts[3], 10, 64)
		if err != nil {
			t.Fatalf("ledger label %q: %v", label, err)
		}
		spec := harness.CellSpec{Workload: parts[0], Detection: d, Scale: sc, Seed: seed}
		if len(parts) == 5 {
			w, ok := strings.CutPrefix(parts[4], "wd")
			window, err := strconv.ParseInt(w, 10, 64)
			if !ok || err != nil {
				t.Fatalf("ledger label %q: bad watchdog part %q", label, parts[4])
			}
			spec.Watchdog = asfsim.WatchdogConfig{Window: window}
		}
		labels = append(labels, label)
		specs[label] = spec
	}
	sort.Strings(labels)
	return labels, specs
}

// TestSnoopFilterIsBitIdentical runs every cell of the digest ledger with
// the snoop filter forced off and on, and requires byte-identical result
// records: the filter may elide only probes that are complete no-ops.
func TestSnoopFilterIsBitIdentical(t *testing.T) {
	defer sim.SetSnoopFilter(true)
	labels, specs := ledgerSpecs(t)
	record := func(label string, filter bool) []byte {
		sim.SetSnoopFilter(filter)
		r, err := harness.RunCell(specs[label], nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		b, err := json.Marshal(stats.NewRecord(r))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if len(labels) == 0 {
		t.Fatal("the ledger holds no cell")
	}
	for _, label := range labels {
		off, on := record(label, false), record(label, true)
		if !bytes.Equal(off, on) {
			t.Errorf("%s: the snoop filter changed the result\noff: %s\non:  %s", label, off, on)
		}
	}
}
