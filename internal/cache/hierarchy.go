package cache

import (
	"fmt"

	"repro/internal/mem"
)

// Level identifies where in the private hierarchy an access was satisfied.
type Level int

const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelMiss // not in this core's hierarchy: goes to the bus
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMiss:
		return "miss"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// HierarchyConfig is the per-core private cache stack plus memory latency.
// Defaults mirror the paper's Table II.
type HierarchyConfig struct {
	L1, L2, L3 Config
	MemLatency int64 // main-memory load-to-use latency
	BusLatency int64 // cache-to-cache transfer (probe + forward) latency
}

// DefaultHierarchy returns the Table II configuration:
// 64 KB / 64 B / 2-way L1 (3 cyc), 512 KB 16-way private L2 (15 cyc),
// 2 MB 16-way private L3 (50 cyc), 210-cycle memory. The 60-cycle
// cache-to-cache latency is our choice (PTLsim-ASF does not publish one);
// it sits between L3 and memory, which is the usual relation.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1:         Config{Name: "L1D", SizeBytes: 64 << 10, LineSize: 64, Assoc: 2, LatencyCyc: 3},
		L2:         Config{Name: "L2", SizeBytes: 512 << 10, LineSize: 64, Assoc: 16, LatencyCyc: 15},
		L3:         Config{Name: "L3", SizeBytes: 2 << 20, LineSize: 64, Assoc: 16, LatencyCyc: 50},
		MemLatency: 210,
		BusLatency: 60,
	}
}

// Validate checks all three levels agree on line size.
func (hc HierarchyConfig) Validate() error {
	for _, c := range []Config{hc.L1, hc.L2, hc.L3} {
		if err := c.Validate(); err != nil {
			return err
		}
		if c.LineSize != hc.L1.LineSize {
			return fmt.Errorf("cache: level %s line size %d != L1 %d", c.Name, c.LineSize, hc.L1.LineSize)
		}
	}
	return nil
}

// Hierarchy is one core's private L1+L2+L3 stack. It answers "where does
// this line hit and at what cost" and maintains inclusion loosely: a line
// brought into L1 is also installed in L2 and L3; L1 victims remain in L2
// (exclusive-of-L1 victims stay cached below), and an L3 eviction expels
// the line from the whole stack (the caller is told so coherence state can
// be dropped / written back).
type Hierarchy struct {
	cfg        HierarchyConfig
	l1, l2, l3 *Cache
}

// NewHierarchy builds an empty private stack.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hierarchy{cfg: cfg, l1: New(cfg.L1), l2: New(cfg.L2), l3: New(cfg.L3)}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// MemLatency returns the main-memory load-to-use latency.
func (h *Hierarchy) MemLatency() int64 { return h.cfg.MemLatency }

// BusLatency returns the cache-to-cache transfer latency.
func (h *Hierarchy) BusLatency() int64 { return h.cfg.BusLatency }

// Reset empties all three levels (epoch bump per level, no reallocation)
// so the stack can be reused for a fresh run.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.l3.Reset()
}

// L1 exposes the L1 tag array (the ASF speculative state is keyed by what
// is resident there).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 exposes the L2 tag array.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// L3 exposes the L3 tag array.
func (h *Hierarchy) L3() *Cache { return h.l3 }

// Probe reports the highest level at which line l currently hits, without
// changing any state.
func (h *Hierarchy) Probe(l mem.LineAddr) Level {
	switch {
	case h.l1.Contains(l):
		return LevelL1
	case h.l2.Contains(l):
		return LevelL2
	case h.l3.Contains(l):
		return LevelL3
	}
	return LevelMiss
}

// Latency returns the load-to-use cost of a hit at the given level
// (LevelMiss returns the memory latency; the bus adder is applied by the
// machine when the line is sourced from a remote cache instead).
func (h *Hierarchy) Latency(lv Level) int64 {
	switch lv {
	case LevelL1:
		return h.cfg.L1.LatencyCyc
	case LevelL2:
		return h.cfg.L2.LatencyCyc
	case LevelL3:
		return h.cfg.L3.LatencyCyc
	}
	return h.cfg.MemLatency
}

// EvictionSet describes lines expelled by an Access fill.
type EvictionSet struct {
	FromL1 []mem.LineAddr // evicted from L1 (still resident below)
	FromL3 []mem.LineAddr // evicted from the entire stack
}

// Access services a reference to line l: it finds the hitting level,
// promotes the line into L1 (and installs it in L2/L3 on a full miss), and
// returns the level that served it plus any evictions the fills caused.
//
// L1 victims are NOT removed from L2/L3 (they were installed there on
// fill), so a later access finds them below — this is what produces the
// distinct L1/L2/L3 hit latencies of Table II. An L3 eviction removes the
// line everywhere; the caller must drop coherence state for it.
func (h *Hierarchy) Access(l mem.LineAddr) (Level, EvictionSet) {
	var ev EvictionSet
	var lv Level
	// hit refreshes LRU and counts a hit at the serving level only.
	switch {
	case h.l1.hit(l):
		return LevelL1, ev
	case h.l2.hit(l):
		lv = LevelL2
	case h.l3.hit(l):
		lv = LevelL3
	default:
		lv = LevelMiss
		// Full miss: install bottom-up so inclusion holds even if the
		// L3 insert evicts something resident above.
		if v, ok := h.l3.Insert(l); ok {
			h.expel(v, &ev)
		}
	}
	// Promote into the levels above the hit level.
	if lv == LevelL3 || lv == LevelMiss {
		h.l2.Insert(l) // an L2 victim stays in L3: latency-only model
	}
	if v, ok := h.l1.Insert(l); ok {
		ev.FromL1 = append(ev.FromL1, v)
	}
	return lv, ev
}

// VictimIfL1Fill returns the line an L1 fill of l would evict, if any.
// The ASF layer uses this to detect capacity aborts *before* committing to
// the fill.
func (h *Hierarchy) VictimIfL1Fill(l mem.LineAddr) (mem.LineAddr, bool) {
	return h.l1.VictimIfInsert(l)
}

// expel removes line v from every level and records it as a full eviction.
func (h *Hierarchy) expel(v mem.LineAddr, ev *EvictionSet) {
	h.l1.Remove(v)
	h.l2.Remove(v)
	// v was just evicted from L3 by the caller.
	ev.FromL3 = append(ev.FromL3, v)
}

// Invalidate removes line l from every level (coherence invalidation).
// It reports whether the line was present anywhere.
func (h *Hierarchy) Invalidate(l mem.LineAddr) bool {
	a := h.l1.Remove(l)
	b := h.l2.Remove(l)
	c := h.l3.Remove(l)
	return a || b || c
}

// Present reports whether the line is resident at any level.
func (h *Hierarchy) Present(l mem.LineAddr) bool { return h.Probe(l) != LevelMiss }
