package coherence

import (
	"testing"

	"repro/internal/mem"
)

// holderSnooper is a snooper that can answer HoldsLineState exactly —
// the StateHolder side of the epoch-compaction contract.
type holderSnooper struct {
	holds  map[mem.LineAddr]bool
	probes int
}

func (h *holderSnooper) Snoop(p Probe) Reply                { h.probes++; return Reply{} }
func (h *holderSnooper) HoldsLineState(l mem.LineAddr) bool { return h.holds[l] }

func newHolderBus(n int) (*Bus, []*holderSnooper) {
	b := NewBus(n, mem.DefaultGeometry)
	hs := make([]*holderSnooper, n)
	for i := range hs {
		hs[i] = &holderSnooper{holds: make(map[mem.LineAddr]bool)}
		b.Register(i, hs[i])
	}
	return b, hs
}

// TestCompactionDropsDeadEntries: once every coherence copy is released
// and no snooper holds per-line state, the directory entry is reclaimed;
// a later toucher re-registers exactly as it did the first time.
func TestCompactionDropsDeadEntries(t *testing.T) {
	b, hs := newHolderBus(4)
	b.EnableSnoopFilter()

	b.Read(0, testLine, 0, 8, false, false)
	b.Read(1, testLine, 0, 8, false, false)
	if b.FilterDirectorySize() != 1 {
		t.Fatalf("directory size %d, want 1", b.FilterDirectorySize())
	}
	b.Drop(0, testLine, false)
	b.Drop(1, testLine, false)
	if b.hasLiveState(testLine) {
		t.Fatal("state entry not released after all drops")
	}

	b.CompactFilter()
	if b.FilterDirectorySize() != 0 {
		t.Fatalf("dead entry survived compaction (size %d)", b.FilterDirectorySize())
	}
	if b.Stats.FilterEntriesDropped != 1 {
		t.Fatalf("FilterEntriesDropped = %d, want 1", b.Stats.FilterEntriesDropped)
	}

	// The compacted cores hold nothing, so eliding their probes is sound.
	before0 := hs[0].probes
	b.Write(2, testLine, 0, 8, true)
	if hs[0].probes != before0 {
		t.Fatalf("compacted core 0 still probed (%d -> %d)", before0, hs[0].probes)
	}
	// And a re-toucher becomes probeable again.
	b.Read(3, testLine, 0, 8, false, false)
	before3 := hs[3].probes
	b.Write(2, testLine, 0, 8, true)
	if hs[3].probes != before3+1 {
		t.Fatal("re-toucher core 3 missed a probe after compaction")
	}
}

// TestCompactionKeepsLiveLines: an entry whose line still has a
// coherence copy is never compacted, holders or not.
func TestCompactionKeepsLiveLines(t *testing.T) {
	b, _ := newHolderBus(2)
	b.EnableSnoopFilter()
	b.Read(0, testLine, 0, 8, false, false)
	b.CompactFilter()
	if b.FilterDirectorySize() != 1 {
		t.Fatal("live line compacted away")
	}
	if b.Stats.FilterEntriesDropped != 0 {
		t.Fatalf("dropped %d entries from a live line", b.Stats.FilterEntriesDropped)
	}
}

// TestCompactionRespectsStateHolder: a released line whose past toucher
// still holds per-line state (retained-invalid speculative bits) keeps
// its entry — and keeps receiving probes — until the state is gone.
func TestCompactionRespectsStateHolder(t *testing.T) {
	b, hs := newHolderBus(3)
	b.EnableSnoopFilter()

	b.Read(0, testLine, 0, 8, true, false)
	hs[0].holds[testLine] = true // e.g. speculative read marks survive invalidation
	b.Drop(0, testLine, true)

	b.CompactFilter()
	if b.FilterDirectorySize() != 1 {
		t.Fatal("entry with retained state was compacted")
	}
	before := hs[0].probes
	b.Write(1, testLine, 0, 8, true)
	if hs[0].probes != before+1 {
		t.Fatal("state-holding past toucher missed a probe")
	}

	// State released (e.g. at commit/abort): next pass reclaims it.
	hs[0].holds[testLine] = false
	b.Drop(1, testLine, false)
	b.CompactFilter()
	if b.FilterDirectorySize() != 0 {
		t.Fatal("entry survived after its holder released the state")
	}
}

// TestCompactionConservativeWithoutStateHolder: a snooper that cannot
// answer HoldsLineState is assumed to always hold state, so its entries
// are never compacted — soundness over space.
func TestCompactionConservativeWithoutStateHolder(t *testing.T) {
	b, _ := newTestBus(2) // recorder does not implement StateHolder
	b.EnableSnoopFilter()
	b.Read(0, testLine, 0, 8, false, false)
	b.Drop(0, testLine, false)
	b.CompactFilter()
	if b.FilterDirectorySize() != 1 {
		t.Fatal("entry for a non-StateHolder snooper was compacted")
	}
	if b.Stats.FilterEntriesDropped != 0 {
		t.Fatal("conservative path dropped an entry")
	}
}

// TestCompactionEpochTicks: with the interval forced to 1 the pass runs
// on every bus transaction, and the probe stream a state-free past
// toucher sees is unchanged relative to the monotone directory — the
// elided probes were no-ops either way.
func TestCompactionEpochTicks(t *testing.T) {
	b, _ := newHolderBus(2)
	b.EnableSnoopFilter()
	b.SetFilterCompactionInterval(1)

	lineA, lineB := mem.LineAddr(0x1000), mem.LineAddr(0x2000)
	b.Read(0, lineA, 0, 8, false, false)
	b.Drop(0, lineA, false)
	// Traffic on an unrelated line ticks the epoch and reclaims lineA.
	b.Read(1, lineB, 0, 8, false, false)
	b.Read(1, lineB, 0, 8, false, false)

	if b.Stats.FilterCompactions == 0 {
		t.Fatal("interval 1 ran no compaction passes")
	}
	if b.FilterDirectorySize() != 1 { // only lineB (live) remains
		t.Fatalf("directory size %d, want 1 (dead lineA reclaimed)", b.FilterDirectorySize())
	}
	// Disabled interval: directory grows monotonically again.
	b.SetFilterCompactionInterval(0)
	b.Read(0, lineA, 0, 8, false, false)
	b.Drop(0, lineA, false)
	for i := 0; i < 4; i++ {
		b.Read(1, lineB, 0, 8, false, false)
	}
	if b.FilterDirectorySize() != 2 {
		t.Fatalf("interval 0 still compacted (size %d, want 2)", b.FilterDirectorySize())
	}
}
