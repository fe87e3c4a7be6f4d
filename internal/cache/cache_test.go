package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

func tinyCache(assoc int) *Cache {
	// 4 sets × assoc ways × 64B lines.
	return New(Config{Name: "T", SizeBytes: 4 * assoc * 64, LineSize: 64, Assoc: assoc, LatencyCyc: 3})
}

// lineInSet returns the k-th distinct line address mapping to set s of c.
func lineInSet(c *Cache, s, k int) mem.LineAddr {
	sets := c.Config().Sets()
	return mem.LineAddr((s + k*sets) * c.Config().LineSize)
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineSize: 64, Assoc: 2},
		{SizeBytes: 64 << 10, LineSize: 0, Assoc: 2},
		{SizeBytes: 64 << 10, LineSize: 64, Assoc: 0},
		{SizeBytes: 100, LineSize: 64, Assoc: 2},        // not divisible
		{SizeBytes: 3 * 64 * 2, LineSize: 64, Assoc: 2}, // 3 sets: not power of two
		{SizeBytes: 4 * 48 * 2, LineSize: 48, Assoc: 2}, // 4 sets, but 48-byte lines
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if err := (Config{SizeBytes: 64 << 10, LineSize: 64, Assoc: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestTableIIGeometry(t *testing.T) {
	h := DefaultHierarchy()
	if h.L1.Sets() != 512 {
		t.Errorf("Table II L1 (64KB/64B/2-way) should have 512 sets, got %d", h.L1.Sets())
	}
	if h.L1.LatencyCyc != 3 || h.L2.LatencyCyc != 15 || h.L3.LatencyCyc != 50 || h.MemLatency != 210 {
		t.Errorf("Table II latencies wrong: %+v", h)
	}
}

func TestInsertAndLookup(t *testing.T) {
	c := tinyCache(2)
	l := lineInSet(c, 1, 0)
	if c.Lookup(l) {
		t.Fatal("empty cache hit")
	}
	if _, ev := c.Insert(l); ev {
		t.Fatal("insert into empty set evicted")
	}
	if !c.Lookup(l) {
		t.Fatal("inserted line missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tinyCache(2)
	a, b, d := lineInSet(c, 0, 0), lineInSet(c, 0, 1), lineInSet(c, 0, 2)
	c.Insert(a)
	c.Insert(b)
	c.Lookup(a) // a is now MRU; b is LRU
	victim, ev := c.Insert(d)
	if !ev || victim != b {
		t.Fatalf("expected b evicted, got %#x (evicted=%v)", uint64(victim), ev)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestInsertExistingRefreshesLRU(t *testing.T) {
	c := tinyCache(2)
	a, b, d := lineInSet(c, 0, 0), lineInSet(c, 0, 1), lineInSet(c, 0, 2)
	c.Insert(a)
	c.Insert(b)
	c.Insert(a) // refresh, not duplicate
	if c.Count() != 2 {
		t.Fatalf("duplicate insert inflated count to %d", c.Count())
	}
	victim, ev := c.Insert(d)
	if !ev || victim != b {
		t.Fatalf("refresh did not update LRU: victim %#x", uint64(victim))
	}
}

func TestVictimIfInsertMatchesInsert(t *testing.T) {
	c := tinyCache(2)
	r := rng.New(42)
	for i := 0; i < 2000; i++ {
		l := lineInSet(c, r.Intn(4), r.Intn(6))
		pv, pok := c.VictimIfInsert(l)
		v, ok := c.Insert(l)
		if pok != ok || (ok && pv != v) {
			t.Fatalf("step %d: predicted (%#x,%v), actual (%#x,%v)", i, uint64(pv), pok, uint64(v), ok)
		}
	}
}

func TestRemove(t *testing.T) {
	c := tinyCache(2)
	l := lineInSet(c, 2, 0)
	if c.Remove(l) {
		t.Fatal("removed a line that was never inserted")
	}
	c.Insert(l)
	if !c.Remove(l) || c.Contains(l) {
		t.Fatal("remove failed")
	}
	// The freed way must be reusable without eviction.
	c.Insert(lineInSet(c, 2, 1))
	c.Insert(lineInSet(c, 2, 2))
	if c.Count() != 2 {
		t.Fatalf("count %d after refilling freed set", c.Count())
	}
}

func TestSetIsolation(t *testing.T) {
	// Filling one set must not evict lines in other sets.
	c := tinyCache(2)
	other := lineInSet(c, 3, 0)
	c.Insert(other)
	for k := 0; k < 10; k++ {
		c.Insert(lineInSet(c, 0, k))
	}
	if !c.Contains(other) {
		t.Fatal("thrashing set 0 evicted a line in set 3")
	}
}

func TestCountNeverExceedsCapacity(t *testing.T) {
	c := tinyCache(2)
	r := rng.New(7)
	for i := 0; i < 5000; i++ {
		c.Insert(mem.LineAddr(r.Intn(64) * 64))
		if c.Count() > 8 {
			t.Fatalf("count %d exceeds capacity 8", c.Count())
		}
	}
}

func TestSetContents(t *testing.T) {
	c := tinyCache(2)
	a, b := lineInSet(c, 1, 0), lineInSet(c, 1, 1)
	c.Insert(a)
	c.Insert(b)
	got := c.SetContents(a)
	if len(got) != 2 {
		t.Fatalf("SetContents returned %v", got)
	}
}

// refLRU is a naive list-based LRU reference model for one set.
type refLRU struct {
	ways int
	mru  []mem.LineAddr // most recent first
}

func (m *refLRU) touch(l mem.LineAddr) (victim mem.LineAddr, evicted bool) {
	for i, v := range m.mru {
		if v == l {
			copy(m.mru[1:i+1], m.mru[:i])
			m.mru[0] = l
			return 0, false
		}
	}
	if len(m.mru) < m.ways {
		m.mru = append([]mem.LineAddr{l}, m.mru...)
		return 0, false
	}
	victim = m.mru[len(m.mru)-1]
	copy(m.mru[1:], m.mru[:len(m.mru)-1])
	m.mru[0] = l
	return victim, true
}

func (m *refLRU) remove(l mem.LineAddr) {
	for i, v := range m.mru {
		if v == l {
			m.mru = append(m.mru[:i], m.mru[i+1:]...)
			return
		}
	}
}

// TestCacheAgainstReferenceLRU drives random insert/lookup/remove traffic
// into one set and checks every eviction decision against the naive model.
func TestCacheAgainstReferenceLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		c := New(Config{Name: "ref", SizeBytes: 4 * ways * 64, LineSize: 64, Assoc: ways, LatencyCyc: 1})
		ref := &refLRU{ways: ways}
		r := rng.New(uint64(100 + ways))
		for i := 0; i < 5000; i++ {
			l := lineInSet(c, 0, r.Intn(ways*3)) // all in set 0
			switch r.Intn(10) {
			case 0:
				c.Remove(l)
				ref.remove(l)
			case 1, 2, 3:
				hit := c.Lookup(l)
				refHit := false
				for _, v := range ref.mru {
					if v == l {
						refHit = true
					}
				}
				if hit != refHit {
					t.Fatalf("ways=%d step %d: lookup(%#x) hit=%v ref=%v", ways, i, uint64(l), hit, refHit)
				}
				if hit {
					ref.touch(l)
				}
			default:
				v, ev := c.Insert(l)
				rv, rev := ref.touch(l)
				if ev != rev || (ev && v != rv) {
					t.Fatalf("ways=%d step %d: insert(%#x) evicted (%#x,%v), ref (%#x,%v)",
						ways, i, uint64(l), uint64(v), ev, uint64(rv), rev)
				}
			}
			if c.Count() != len(ref.mru) {
				t.Fatalf("ways=%d step %d: count %d, ref %d", ways, i, c.Count(), len(ref.mru))
			}
		}
	}
}
