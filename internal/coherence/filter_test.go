package coherence

import (
	"testing"

	"repro/internal/mem"
)

// probeCounts returns how many probes each recorder has seen.
func probeCounts(recs []*recorder) []int {
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = len(r.probes)
	}
	return out
}

// TestSnoopFilterReachesCopiesAndHolders: with the filter on, a probe
// reaches exactly the remote cores that hold a valid copy of the line or a
// holder bit for it, in core order, and no other core.
func TestSnoopFilterReachesCopiesAndHolders(t *testing.T) {
	b, recs := newTestBus(5)
	b.EnableSnoopFilter()
	i := lineIdx(b, testLine)

	b.Read(1, i, 0, 8, false, false) // core 1: E copy
	b.Read(2, i, 0, 8, false, false) // core 2: S copy (core 1 E->S)
	b.Hold(3, i)                     // core 3: state, no copy
	before := probeCounts(recs)
	b.Write(0, i, 0, 8, true)

	got := probeCounts(recs)
	for c, want := range []int{0, 1, 1, 1, 0} {
		if d := got[c] - before[c]; d != want {
			t.Errorf("core %d received %d probes, want %d", c, d, want)
		}
	}
	if n := b.Stats.FilteredSnoops; n == 0 {
		t.Fatal("no delivery was counted as filtered")
	}
	for c := 1; c <= 3; c++ {
		if p := recs[c].probes[len(recs[c].probes)-1]; p.Idx != i || p.Line != testLine || p.From != 0 {
			t.Errorf("core %d probe %+v, want line %#x index %d from core 0", c, p, uint64(testLine), i)
		}
	}
}

// TestSnoopFilterSkipsUntouchedCores: a core that has never held a copy or
// state for a line receives no probes for it, until it takes a copy.
func TestSnoopFilterSkipsUntouchedCores(t *testing.T) {
	b, recs := newTestBus(4)
	b.EnableSnoopFilter()
	i := lineIdx(b, testLine)

	b.Read(0, i, 0, 8, false, false) // core 0 takes E
	b.Write(1, i, 0, 8, false)       // invalidates core 0
	b.Read(0, i, 0, 8, false, false) // re-read: probes core 1
	b.Write(2, i, 0, 8, true)        // probes cores 0 and 1

	for _, c := range []int{0, 1} {
		if len(recs[c].probes) == 0 {
			t.Errorf("core %d held a copy but saw no probes", c)
		}
	}
	if n := len(recs[3].probes); n != 0 {
		t.Fatalf("untouched core 3 saw %d probes, want 0", n)
	}

	// Once core 3 takes a copy, it becomes probeable.
	b.Read(3, i, 0, 8, false, false)
	b.Write(0, i, 0, 8, true)
	if len(recs[3].probes) == 0 {
		t.Fatal("core 3 saw no probes after taking a copy")
	}
}

// TestSnoopFilterProbesRetainedState: a core whose copy is gone but whose
// snooper still holds state for the line (speculative state retained in an
// invalidated line, §IV-D-2) keeps receiving probes.
func TestSnoopFilterProbesRetainedState(t *testing.T) {
	b, recs := newTestBus(3)
	b.EnableSnoopFilter()
	i := lineIdx(b, testLine)

	b.Read(0, i, 0, 8, true, false)
	b.Hold(0, i)
	b.Write(1, i, 0, 8, true) // invalidates core 0's copy; state stays
	if b.StateAt(0, i).Valid() {
		t.Fatal("core 0 still holds a copy after the invalidation")
	}
	before := len(recs[0].probes)
	b.Read(2, i, 0, 8, true, false)
	b.Write(2, i, 0, 8, true)
	if got := len(recs[0].probes) - before; got != 2 {
		t.Fatalf("core 0 with retained state received %d probes, want 2", got)
	}
}

// TestSnoopFilterStopsProbingReleasedCore: a core that dropped its copy and
// released its state stops receiving probes, also after the line's state
// entry was released.
func TestSnoopFilterStopsProbingReleasedCore(t *testing.T) {
	b, recs := newTestBus(3)
	b.EnableSnoopFilter()
	i := lineIdx(b, testLine)

	b.Read(0, i, 0, 8, true, false)
	b.Hold(0, i)
	b.Drop(0, testLine, false) // no copy left anywhere
	if b.hasLiveState(testLine) {
		t.Fatal("state entry not released after the last drop")
	}
	before := len(recs[0].probes)
	b.Write(1, i, 0, 8, true)
	if got := len(recs[0].probes) - before; got != 1 {
		t.Fatalf("holder without a copy received %d probes, want 1", got)
	}

	b.Release(0, i)
	b.Drop(1, testLine, false)
	before = len(recs[0].probes)
	b.Write(2, i, 0, 8, true)
	if got := len(recs[0].probes) - before; got != 0 {
		t.Fatalf("core with neither copy nor state received %d probes, want 0", got)
	}
}

// TestSnoopFilterOffDeliversEverywhere: the default (filter off) bus
// broadcasts to every remote core, holding anything or not.
func TestSnoopFilterOffDeliversEverywhere(t *testing.T) {
	b, recs := newTestBus(3)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	for c := 1; c < 3; c++ {
		if len(recs[c].probes) != 1 {
			t.Errorf("filter-off core %d saw %d probes, want 1", c, len(recs[c].probes))
		}
	}
	if b.Stats.FilteredSnoops != 0 {
		t.Fatalf("filter-off bus counted %d filtered snoops", b.Stats.FilteredSnoops)
	}
}

// TestSnoopFilterWouldConflict: the holder-wins pre-check consults the same
// set the broadcast reaches: cores with a copy or a holder bit.
func TestSnoopFilterWouldConflict(t *testing.T) {
	b := NewBus(2, mem.DefaultGeometry)
	b.EnableSnoopFilter()
	always := &conflictingSnooper{conflicts: true}
	b.Register(1, always)
	i := lineIdx(b, testLine)
	if b.WouldConflict(0, i, 0, 8, true) {
		t.Fatal("checker with neither copy nor state reported a conflict through the filter")
	}
	b.Read(1, i, 0, 8, true, false)
	if !b.WouldConflict(0, i, 0, 8, true) {
		t.Fatal("conflict of a checker holding a copy was filtered out")
	}
	b.Drop(1, testLine, false)
	if b.WouldConflict(0, i, 0, 8, true) {
		t.Fatal("checker that dropped its copy was still consulted")
	}
	b.Hold(1, i)
	if !b.WouldConflict(0, i, 0, 8, true) {
		t.Fatal("conflict of a checker holding state was filtered out")
	}
}

// TestBusResetClearsHolders: Reset forgets every holder bit, so a reused
// bus starts with an empty holder set.
func TestBusResetClearsHolders(t *testing.T) {
	b, recs := newTestBus(2)
	b.EnableSnoopFilter()
	b.Hold(1, lineIdx(b, testLine))
	b.Reset()
	b.EnableSnoopFilter()
	b.Write(0, lineIdx(b, testLine), 0, 8, true)
	if n := len(recs[1].probes); n != 0 {
		t.Fatalf("core 1 received %d probes after Reset cleared its holder bit", n)
	}
}

// TestSnoopFilterDisabledBeyondMaskWidth: the holder set is a 64-bit core
// mask; wider buses silently keep the filter off rather than filtering
// incorrectly.
func TestSnoopFilterDisabledBeyondMaskWidth(t *testing.T) {
	b := NewBus(65, mem.DefaultGeometry)
	b.EnableSnoopFilter()
	rec := &recorder{}
	b.Register(64, rec)
	b.Hold(64, lineIdx(b, testLine)) // out of mask range: ignored
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
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
