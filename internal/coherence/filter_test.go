package coherence

import (
	"testing"

	"repro/internal/mem"
)

// TestSnoopFilterSkipsUntouchedCores: with the filter on, a core that has
// never issued a bus transaction for a line receives no probes for it,
// while cores that have keep receiving every probe.
func TestSnoopFilterSkipsUntouchedCores(t *testing.T) {
	b, recs := newTestBus(4)
	b.EnableSnoopFilter()

	b.Read(0, testLine, 0, 8, false, false) // core 0 touches
	b.Write(1, testLine, 0, 8, false)       // core 1 touches, invalidates 0
	b.Read(0, testLine, 0, 8, false, false) // re-read: probes 1
	b.Write(2, testLine, 0, 8, true)        // core 2 touches: probes 0 and 1

	for _, c := range []int{0, 1, 2} {
		if len(recs[c].probes) == 0 && c != 2 {
			t.Errorf("toucher core %d saw no probes", c)
		}
	}
	if n := len(recs[3].probes); n != 0 {
		t.Fatalf("untouched core 3 saw %d probes, want 0", n)
	}
	if b.Stats.FilteredSnoops == 0 {
		t.Fatal("filter elided no probe deliveries")
	}

	// Once core 3 touches the line, it becomes probeable.
	b.Read(3, testLine, 0, 8, false, false)
	b.Write(0, testLine, 0, 8, true)
	if len(recs[3].probes) == 0 {
		t.Fatal("core 3 saw no probes after touching the line")
	}
}

// TestSnoopFilterIsMonotone: a core keeps receiving probes even after
// every coherence copy of the line has been released from the state table
// — the ever-touched bit must outlive the protocol entry, because retained
// speculative state (§IV-D-2) does.
func TestSnoopFilterIsMonotone(t *testing.T) {
	b, recs := newTestBus(3)
	b.EnableSnoopFilter()

	b.Read(0, testLine, 0, 8, false, false)
	b.Drop(0, testLine, false) // all copies gone; states entry released
	if b.hasLiveState(testLine) {
		t.Fatal("state entry not released after last drop")
	}

	before := len(recs[0].probes)
	b.Write(1, testLine, 0, 8, true)
	if len(recs[0].probes) != before+1 {
		t.Fatalf("past toucher core 0 missed a probe after state release (%d -> %d)",
			before, len(recs[0].probes))
	}
	if n := len(recs[2].probes); n != 0 {
		t.Fatalf("untouched core 2 saw %d probes", n)
	}
}

// TestSnoopFilterOffDeliversEverywhere: the default (filter off) bus
// broadcasts to every remote core, touched or not.
func TestSnoopFilterOffDeliversEverywhere(t *testing.T) {
	b, recs := newTestBus(3)
	b.Read(0, testLine, 0, 8, false, false)
	for c := 1; c < 3; c++ {
		if len(recs[c].probes) != 1 {
			t.Errorf("filter-off core %d saw %d probes, want 1", c, len(recs[c].probes))
		}
	}
	if b.Stats.FilteredSnoops != 0 {
		t.Fatalf("filter-off bus counted %d filtered snoops", b.Stats.FilteredSnoops)
	}
}

// TestSnoopFilterWouldConflict: the holder-wins pre-check respects the
// filter the same way the broadcast does (an untouched checker can never
// hold conflicting state).
func TestSnoopFilterWouldConflict(t *testing.T) {
	b := NewBus(2, mem.DefaultGeometry)
	b.EnableSnoopFilter()
	always := &conflictingSnooper{conflicts: true}
	b.Register(1, always)
	if b.WouldConflict(0, testLine, 0, 8, true) {
		t.Fatal("untouched checker reported a conflict through the filter")
	}
	b.Read(1, testLine, 0, 8, true, false)
	if !b.WouldConflict(0, testLine, 0, 8, true) {
		t.Fatal("touched checker's conflict was filtered out")
	}
}

// TestSnoopFilterDisabledBeyondMaskWidth: the directory is a 64-bit core
// mask; wider buses silently keep the filter off rather than filtering
// incorrectly.
func TestSnoopFilterDisabledBeyondMaskWidth(t *testing.T) {
	b := NewBus(65, mem.DefaultGeometry)
	b.EnableSnoopFilter()
	rec := &recorder{}
	b.Register(64, rec)
	b.Read(0, testLine, 0, 8, false, false)
	if len(rec.probes) != 1 {
		t.Fatalf("wide-bus core 64 saw %d probes, want 1 (filter must stay off)", len(rec.probes))
	}
}

// conflictingSnooper implements Snooper and ConflictChecker with a fixed
// answer.
type conflictingSnooper struct {
	conflicts bool
}

func (s *conflictingSnooper) Snoop(Probe) Reply        { return Reply{} }
func (s *conflictingSnooper) WouldConflict(Probe) bool { return s.conflicts }

var _ interface {
	Snooper
	ConflictChecker
} = (*conflictingSnooper)(nil)
