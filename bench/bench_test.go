package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/workloads"
)

// TestSmoke runs every workload traced for about a second, with a
// one-shot set-up, a 120-cell fill and a ScaleTiny matrix, and checks
// that every metric BENCHMARK.json names is emitted, finite and in its
// unit, that no call failed and no digest mismatched, and that the CPU
// profile's shares add up to one.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantE2E := make(map[string]string)
	for _, m := range bf.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := make(map[string]string)
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	checkDefs(t, "end_to_end", endToEndDefs, wantE2E)
	checkDefs(t, "per_layer", perLayerDefs, wantLayer)

	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			p := params{
				seed: 1, window: time.Second, trace: true, traceDir: t.TempDir(),
				setups: 1, fillSeeds: 2, localScale: workloads.ScaleTiny, sample: 5, recovery: 1,
			}
			r, err := runWorkload(name, p)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d mismatches=%v", r.Correct, r.Attempted, r.Failed, r.Mismatches)
			}
			checkMetrics(t, r.EndToEnd, wantE2E, true)
			checkMetrics(t, r.PerLayer, wantLayer, false)

			var share float64
			for _, c := range cpuCategories {
				share += r.PerLayer["cpu."+c+"_share"].Value
			}
			if math.Abs(share-1) > 0.01 {
				t.Errorf("CPU shares sum to %v, want 1 ± 0.01", share)
			}

			// The printed line carries exactly the contract's keys, with
			// the per-layer metrics when traced and the end-to-end ones
			// when not.
			for _, traced := range []bool{true, false} {
				r.Trace = traced
				data, err := json.Marshal(r.line())
				if err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(data, &line); err != nil {
					t.Fatal(err)
				}
				var keys []string
				for k := range line {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
					t.Errorf("result line keys %s", got)
				}
				var metrics map[string]Metric
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				want := wantLayer
				if !traced {
					want = wantE2E
				}
				if len(metrics) != len(want) {
					t.Errorf("traced=%v: line has %d metrics, want %d", traced, len(metrics), len(want))
				}
			}
		})
	}
}

func checkDefs(t *testing.T, section string, defs []metricDef, want map[string]string) {
	t.Helper()
	if len(defs) != len(want) {
		t.Errorf("%s: the driver defines %d metrics, BENCHMARK.json %d", section, len(defs), len(want))
	}
	for _, d := range defs {
		if unit, ok := want[d.name]; !ok || unit != d.unit {
			t.Errorf("%s: %s (%s) is not in BENCHMARK.json with that unit", section, d.name, d.unit)
		}
	}
}

func checkMetrics(t *testing.T, got map[string]Metric, want map[string]string, positive bool) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", name)
		case m.Unit != unit:
			t.Errorf("%s: unit %q, want %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v, not finite", name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 5.5, 8.25", q1, med, q3)
	}
}

func TestStackCategory(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.chanrecv", "repro/internal/sim.(*Thread).yield", "repro/internal/workloads.kmeansRun"}, "sim_handoff"},
		{[]string{"repro/internal/mem.(*LineIndexer).Lookup", "repro/internal/core.(*Engine).Access"}, "mem"},
		{[]string{"runtime.mallocgc", "repro.Run"}, "repro_other"},
		{[]string{"repro/client.(*Client).once", "main.main"}, "client"},
		{[]string{"encoding/json.Marshal", "main.digestOf"}, "bench"},
		{[]string{"internal/poll.(*FD).Read", "net/http.(*persistConn).readLoop"}, "std_net"},
		{[]string{"runtime.gcBgMarkWorker"}, "std_runtime"},
	} {
		if got := stackCategory(tc.frames); got != tc.want {
			t.Errorf("stackCategory(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}
