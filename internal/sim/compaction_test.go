package sim

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// runCounterFilter runs the counter workload with the snoop filter on or
// off and returns the run together with the machine for bus-stat
// assertions.
func runCounterFilter(t *testing.T, cfg Config, n int, filter bool) (*stats.Run, *Machine) {
	t.Helper()
	defer func(prev bool) { snoopFilter = prev }(snoopFilter)
	snoopFilter = filter
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Execute(&counterWorkload{n: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	return r, m
}

// TestFilterCompactionIsBitIdentical: the snoop filter must be invisible
// to simulation results — it elides only probes that are complete no-ops.
// The filter once kept a monotone directory that an epoch pass compacted;
// it now keeps the exact holder set, which no longer needs compacting, and
// the test keeps its name while checking the same property of that set:
// the same seeded workload with the filter off and on must give
// byte-identical result records in each detection mode.
func TestFilterCompactionIsBitIdentical(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeSubBlock} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(mode)
			cfg.Seed = 42

			off, _ := runCounterFilter(t, cfg, 40, false)
			on, m := runCounterFilter(t, cfg, 40, true)

			enc := func(r *stats.Run) string {
				b, err := json.Marshal(stats.NewRecord(r))
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			if a, b := enc(off), enc(on); a != b {
				t.Fatalf("the snoop filter changed results:\noff: %s\non:  %s", a, b)
			}
			// The filtered run must actually have elided probes —
			// otherwise this test proves nothing.
			if m.bus.Stats.FilteredSnoops == 0 {
				t.Fatal("the filtered run elided no probe")
			}
		})
	}
}
