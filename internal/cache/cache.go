// Package cache implements the set-associative tag arrays and the private
// three-level hierarchy of the paper's Table II machine. The hierarchy
// decides *where* a line hits (and therefore the latency of an access);
// coherence legality is tracked separately (package coherence), mirroring
// the paper's split between the unmodified MOESI protocol and the L1-side
// speculative state.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Config describes one cache level.
type Config struct {
	Name       string // for diagnostics, e.g. "L1D"
	SizeBytes  int    // total capacity
	LineSize   int    // bytes per line (must match mem.Geometry)
	Assoc      int    // ways per set
	LatencyCyc int64  // load-to-use latency when this level hits
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.LineSize * c.Assoc) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive size/line/assoc", c.Name)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d is not a power of two", c.Name, c.LineSize)
	}
	if c.SizeBytes%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %s: %d sets is not a power of two", c.Name, s)
	}
	return nil
}

// way is one tag-array entry. A way is valid when its live stamp equals the
// cache's current epoch; Reset bumps the epoch, invalidating every way in
// O(1) without touching the array. live == 0 never matches (epochs start
// at 1), which is what Remove uses.
type way struct {
	tag  mem.LineAddr
	lru  uint64 // last-touch stamp; larger = more recent
	live uint32 // == Cache.epoch when this way is valid
}

// Cache is a set-associative tag array with true-LRU replacement. It tracks
// presence only; data lives in the simulated Memory and coherence state in
// the coherence package. All sets share one flat backing slice (set s is
// ways[s*Assoc : (s+1)*Assoc]) so building a cache is a single allocation.
type Cache struct {
	cfg     Config
	ways    []way
	shift   uint   // log2(LineSize): line address >> shift = line number
	setMask uint64 // sets - 1: line number & setMask = set index
	assoc   uint64
	epoch   uint32
	clock   uint64 // LRU stamp source

	// Statistics.
	Hits, Misses, Evictions uint64
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:     cfg,
		ways:    make([]way, cfg.Sets()*cfg.Assoc),
		shift:   uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask: uint64(cfg.Sets() - 1),
		assoc:   uint64(cfg.Assoc),
		epoch:   1,
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Reset empties the cache and zeroes its statistics without reallocating:
// the validity epoch is bumped so every way reads as invalid.
func (c *Cache) Reset() {
	if c.epoch == ^uint32(0) {
		// Epoch wraparound (after ~4 billion resets): stale stamps could
		// collide, so pay for one real clear.
		for i := range c.ways {
			c.ways[i] = way{}
		}
		c.epoch = 0
	}
	c.epoch++
	c.clock = 0
	c.Hits, c.Misses, c.Evictions = 0, 0, 0
}

// set returns the ways of l's set. Validate guarantees power-of-two line
// size and set count, so the index is a shift and a mask.
func (c *Cache) set(l mem.LineAddr) []way {
	base := (uint64(l) >> c.shift & c.setMask) * c.assoc
	return c.ways[base : base+c.assoc]
}

// Lookup reports whether line l is present, updating LRU on hit.
func (c *Cache) Lookup(l mem.LineAddr) bool {
	set := c.set(l)
	for i := range set {
		if set[i].live == c.epoch && set[i].tag == l {
			c.clock++
			set[i].lru = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// hit refreshes l's LRU stamp and counts a hit if l is present, and
// changes nothing if it is not: one scan for Hierarchy.Access, which
// counts hits only at the level that serves the access.
func (c *Cache) hit(l mem.LineAddr) bool {
	set := c.set(l)
	for i := range set {
		if set[i].live == c.epoch && set[i].tag == l {
			c.clock++
			set[i].lru = c.clock
			c.Hits++
			return true
		}
	}
	return false
}

// Contains reports presence without touching LRU or statistics.
func (c *Cache) Contains(l mem.LineAddr) bool {
	set := c.set(l)
	for i := range set {
		if set[i].live == c.epoch && set[i].tag == l {
			return true
		}
	}
	return false
}

// Insert brings line l into the cache, evicting the LRU way if the set is
// full. It returns the evicted line and true if an eviction happened.
// Inserting a line that is already present just refreshes its LRU stamp.
func (c *Cache) Insert(l mem.LineAddr) (victim mem.LineAddr, evicted bool) {
	set := c.set(l)
	c.clock++
	// One scan finds the line if present, else the first free way, else
	// the LRU way (the first with the smallest stamp; only consulted when
	// every way is valid).
	free, vi := -1, 0
	for i := range set {
		if set[i].live != c.epoch {
			if free < 0 {
				free = i
			}
			continue
		}
		if set[i].tag == l {
			set[i].lru = c.clock
			return 0, false
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	if free >= 0 {
		set[free] = way{tag: l, lru: c.clock, live: c.epoch}
		return 0, false
	}
	victim = set[vi].tag
	set[vi] = way{tag: l, lru: c.clock, live: c.epoch}
	c.Evictions++
	return victim, true
}

// VictimIfInsert returns which line would be evicted if l were inserted
// now, without performing the insertion. ok is false when no eviction
// would occur (line already present or a free way exists).
func (c *Cache) VictimIfInsert(l mem.LineAddr) (victim mem.LineAddr, ok bool) {
	set := c.set(l)
	for i := range set {
		if set[i].live == c.epoch && set[i].tag == l {
			return 0, false
		}
	}
	for i := range set {
		if set[i].live != c.epoch {
			return 0, false
		}
	}
	vi := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	return set[vi].tag, true
}

// Remove drops line l if present (e.g. on invalidation or recall).
// It reports whether the line was present.
func (c *Cache) Remove(l mem.LineAddr) bool {
	set := c.set(l)
	for i := range set {
		if set[i].live == c.epoch && set[i].tag == l {
			set[i].live = 0
			return true
		}
	}
	return false
}

// Touch refreshes l's LRU stamp if present.
func (c *Cache) Touch(l mem.LineAddr) {
	set := c.set(l)
	for i := range set {
		if set[i].live == c.epoch && set[i].tag == l {
			c.clock++
			set[i].lru = c.clock
			return
		}
	}
}

// SetContents returns the lines currently resident in the same set as l.
// Used by tests to verify replacement behaviour.
func (c *Cache) SetContents(l mem.LineAddr) []mem.LineAddr {
	set := c.set(l)
	var out []mem.LineAddr
	for i := range set {
		if set[i].live == c.epoch {
			out = append(out, set[i].tag)
		}
	}
	return out
}

// Count returns the number of valid lines in the whole cache.
func (c *Cache) Count() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].live == c.epoch {
			n++
		}
	}
	return n
}
