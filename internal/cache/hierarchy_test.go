package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// tinyHierarchy: L1 2 sets×2 ways, L2 4 sets×2, L3 8 sets×2 (64B lines) —
// small enough to force evictions at every level.
func tinyHierarchy() *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		L1:         Config{Name: "L1", SizeBytes: 2 * 2 * 64, LineSize: 64, Assoc: 2, LatencyCyc: 3},
		L2:         Config{Name: "L2", SizeBytes: 4 * 2 * 64, LineSize: 64, Assoc: 2, LatencyCyc: 15},
		L3:         Config{Name: "L3", SizeBytes: 8 * 2 * 64, LineSize: 64, Assoc: 2, LatencyCyc: 50},
		MemLatency: 210,
		BusLatency: 60,
	})
}

func TestHierarchyMissThenHits(t *testing.T) {
	h := tinyHierarchy()
	l := mem.LineAddr(0x1000)
	if lv, _ := h.Access(l); lv != LevelMiss {
		t.Fatalf("first access level %v", lv)
	}
	if lv, _ := h.Access(l); lv != LevelL1 {
		t.Fatalf("second access level %v", lv)
	}
	if h.Latency(LevelL1) != 3 || h.Latency(LevelL2) != 15 || h.Latency(LevelL3) != 50 || h.Latency(LevelMiss) != 210 {
		t.Fatal("latencies wrong")
	}
}

func TestHierarchyL1VictimStaysBelow(t *testing.T) {
	h := tinyHierarchy()
	// Line numbers 0, 2, 6: all map to L1 set 0 (2 sets) but to L2 sets
	// 0, 2, 2 (4 sets) — they collide in L1 without overfilling any L2 set.
	a, b, c := mem.LineAddr(0*64), mem.LineAddr(2*64), mem.LineAddr(6*64)
	h.Access(a)
	h.Access(b)
	_, ev := h.Access(c) // evicts a from L1
	if len(ev.FromL1) != 1 || ev.FromL1[0] != a {
		t.Fatalf("expected a evicted from L1, got %v", ev)
	}
	if len(ev.FromL3) != 0 {
		t.Fatalf("unexpected full eviction %v", ev.FromL3)
	}
	// a must now hit in L2, not miss.
	if lv, _ := h.Access(a); lv != LevelL2 {
		t.Fatalf("L1 victim should hit L2, got %v", lv)
	}
}

// TestHierarchyAccessCounters: Access counts one hit at the level that
// serves it, and nothing at levels that miss or on a full miss.
func TestHierarchyAccessCounters(t *testing.T) {
	h := tinyHierarchy()
	count := func() [6]uint64 {
		return [6]uint64{h.l1.Hits, h.l1.Misses, h.l2.Hits, h.l2.Misses, h.l3.Hits, h.l3.Misses}
	}
	a, b, c := mem.LineAddr(0*64), mem.LineAddr(2*64), mem.LineAddr(6*64)
	h.Access(a) // full miss
	if got := count(); got != [6]uint64{} {
		t.Fatalf("after full miss: %v, want all zero", got)
	}
	h.Access(a) // L1 hit
	if got, want := count(), [6]uint64{1, 0, 0, 0, 0, 0}; got != want {
		t.Fatalf("after L1 hit: %v, want %v", got, want)
	}
	h.Access(b)
	h.Access(c) // evicts a from L1; it stays in L2
	if lv, _ := h.Access(a); lv != LevelL2 {
		t.Fatalf("a served from %v, want L2", lv)
	}
	if got, want := count(), [6]uint64{1, 0, 1, 0, 0, 0}; got != want {
		t.Fatalf("after L2 hit: %v, want %v", got, want)
	}
}

func TestHierarchyL3EvictionExpelsEverywhere(t *testing.T) {
	h := tinyHierarchy()
	// L3 set has 2 ways; reference 3 lines mapping to the same L3 set.
	sets3 := h.Config().L3.Sets()
	mk := func(k int) mem.LineAddr { return mem.LineAddr(k * sets3 * 64) }
	h.Access(mk(0))
	h.Access(mk(1))
	_, ev := h.Access(mk(2))
	if len(ev.FromL3) != 1 {
		t.Fatalf("expected one full eviction, got %v", ev.FromL3)
	}
	if h.Present(ev.FromL3[0]) {
		t.Fatal("fully evicted line still present somewhere")
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	h := tinyHierarchy()
	l := mem.LineAddr(0x2000)
	h.Access(l)
	if !h.Invalidate(l) {
		t.Fatal("invalidate of present line returned false")
	}
	if h.Present(l) {
		t.Fatal("line present after invalidate")
	}
	if h.Invalidate(l) {
		t.Fatal("second invalidate returned true")
	}
}

func TestHierarchyProbeDoesNotMutate(t *testing.T) {
	h := tinyHierarchy()
	l := mem.LineAddr(0x3000)
	if h.Probe(l) != LevelMiss {
		t.Fatal("probe hit on empty hierarchy")
	}
	if h.Present(l) {
		t.Fatal("probe installed the line")
	}
}

func TestHierarchyPresentInvariant(t *testing.T) {
	// After any access sequence: every line that Access was called on and
	// that was never fully evicted must be Present, and vice versa.
	h := tinyHierarchy()
	r := rng.New(5)
	resident := make(map[mem.LineAddr]bool)
	for i := 0; i < 3000; i++ {
		l := mem.LineAddr(r.Intn(64) * 64)
		_, ev := h.Access(l)
		resident[l] = true
		for _, v := range ev.FromL3 {
			delete(resident, v)
		}
		if i%100 == 0 {
			for want := range resident {
				if !h.Present(want) {
					t.Fatalf("step %d: line %#x lost without FromL3 notification", i, uint64(want))
				}
			}
		}
	}
}

func TestVictimIfL1Fill(t *testing.T) {
	h := tinyHierarchy()
	a, b, c := mem.LineAddr(0), mem.LineAddr(128), mem.LineAddr(256)
	h.Access(a)
	h.Access(b)
	v, ok := h.VictimIfL1Fill(c)
	if !ok || v != a {
		t.Fatalf("predicted victim (%#x,%v), want a", uint64(v), ok)
	}
	// Prediction must not modify state.
	if h.Probe(a) != LevelL1 {
		t.Fatal("VictimIfL1Fill mutated the cache")
	}
}

func TestHierarchyConfigValidate(t *testing.T) {
	bad := DefaultHierarchy()
	bad.L2.LineSize = 32
	if bad.Validate() == nil {
		t.Fatal("mismatched line sizes accepted")
	}
	if DefaultHierarchy().Validate() != nil {
		t.Fatal("default hierarchy rejected")
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelL3: "L3", LevelMiss: "miss"} {
		if lv.String() != want {
			t.Errorf("Level(%d).String() = %q", int(lv), lv.String())
		}
	}
}
