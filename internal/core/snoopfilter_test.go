// The probe-delivery audit lives in an external test package because it
// drives real workloads on a full machine (package sim imports core).
package core_test

import (
	"fmt"
	"testing"

	asfsim "repro"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/workloads"
)

// auditSnooper stands between the bus and one engine and counts the probes
// delivered to it that it could only ignore: those for a line of which its
// core holds neither a coherence copy nor engine state.
type auditSnooper struct {
	e               *core.Engine
	bus             *coherence.Bus
	delivered, noop int
}

func (a *auditSnooper) check(p coherence.Probe) {
	a.delivered++
	if !a.bus.StateAt(a.e.ID(), p.Idx).Valid() && !a.e.HoldsState(p.Idx) {
		a.noop++
	}
}

func (a *auditSnooper) Snoop(p coherence.Probe) coherence.Reply {
	a.check(p)
	return a.e.Snoop(p)
}

func (a *auditSnooper) WouldConflict(p coherence.Probe) bool {
	a.check(p)
	return a.e.WouldConflict(p)
}

// TestSnoopFilterDeliversNoNoOpProbes: across every paper workload under
// baseline, sub-blocking and the perfect system, the bus delivers no probe
// to an engine that holds neither a copy of the line nor state for it.
func TestSnoopFilterDeliversNoNoOpProbes(t *testing.T) {
	for _, wl := range asfsim.Workloads() {
		for _, d := range []asfsim.Detection{asfsim.DetectBaseline, asfsim.DetectSubBlock4, asfsim.DetectPerfect} {
			t.Run(fmt.Sprintf("%s/%s", wl, d), func(t *testing.T) {
				cfg := asfsim.DefaultConfig()
				cfg.Detection = d
				m, err := asfsim.NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				bus := m.Bus()
				audits := make([]*auditSnooper, m.Threads())
				for i := range audits {
					audits[i] = &auditSnooper{e: m.Engine(i), bus: bus}
					bus.Register(i, audits[i])
				}
				w, err := workloads.New(wl, workloads.ScaleTiny)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Execute(w); err != nil {
					t.Fatal(err)
				}
				delivered, noop := 0, 0
				for _, a := range audits {
					delivered += a.delivered
					noop += a.noop
				}
				if delivered == 0 || bus.Stats.FilteredSnoops == 0 {
					t.Fatalf("delivered %d probes and filtered %d: the audit saw no filtering",
						delivered, bus.Stats.FilteredSnoops)
				}
				if noop != 0 {
					t.Fatalf("%d of %d delivered probes reached a core holding neither a copy nor state",
						noop, delivered)
				}
			})
		}
	}
}
