package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
)

// CacheEntry is one cached cell result: the canonical record JSON bytes
// under the cell's content address. Results are stored and served as raw
// bytes — never re-decoded — so a cache hit is byte-identical to the
// response that was computed, which the end-to-end determinism test
// asserts with a plain bytes.Equal.
type CacheEntry struct {
	Key       string          `json:"key"`
	Workload  string          `json:"workload"`
	SimCycles int64           `json:"simCycles"`
	Result    json.RawMessage `json:"result"`
	// Digest is the hex SHA-256 of the result bytes, computed when the
	// entry is stored. It rides in every done record (journal, snapshot,
	// replication) so a reloading or replicating node can prove the bytes
	// it is about to serve are the bytes that were computed.
	Digest string `json:"digest,omitempty"`

	// Cell is the canonical spec the result was computed from. It lets
	// the audit scrubber fully re-execute a sampled entry (and repair a
	// quarantined one) without consulting the journal. Entries stored
	// without one get digest-only scrubs.
	Cell *canonicalCell `json:"cell,omitempty"`
}

// ResultDigest is the content digest recorded on cache entries: the hex
// SHA-256 of the canonical result bytes.
func ResultDigest(result []byte) string {
	sum := sha256.Sum256(result)
	return hex.EncodeToString(sum[:])
}

// Cache is a bounded two-segment LRU of cell results, safe for
// concurrent use. A stored entry starts in probation; its first hit
// moves it to protected, which holds at most 4/5 of the bound and hands
// its least recently used entry back to the head of probation when over
// it. Eviction takes probation's least recently used entry. So a stream
// of one-off cells churns probation and never pushes out an entry that
// was asked for again, while probation keeps at least a fifth of the
// bound: room for a whole default paperfigs sweep between its Put and
// its re-read. The server persists it as done records in a compacted
// log segment (the cache snapshot), so a restarted asfd keeps its
// accumulated results.
type Cache struct {
	mu        sync.Mutex
	max       int
	protMax   int // protected's bound: 4/5 of max
	probation segment
	protected segment
	byKey     map[string]*cacheNode

	hits, misses, evictions uint64
}

// cacheNode is one entry's place in its segment's recency ring.
type cacheNode struct {
	e          *CacheEntry
	prev, next *cacheNode
	protected  bool
}

// segment is a recency ring around a sentinel: root.next is the most
// recently used entry, root.prev the least.
type segment struct {
	root cacheNode
	n    int
}

func (s *segment) init() { s.root.prev, s.root.next = &s.root, &s.root }

func (s *segment) pushFront(n *cacheNode) {
	n.prev, n.next = &s.root, s.root.next
	n.prev.next, n.next.prev = n, n
	s.n++
}

func (s *segment) remove(n *cacheNode) {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
	s.n--
}

// back returns the least recently used node of a non-empty segment.
func (s *segment) back() *cacheNode { return s.root.prev }

// NewCache returns a cache bounded to max entries (max <= 0 means 1024).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 1024
	}
	c := &Cache{
		max:     max,
		protMax: max * 4 / 5,
		byKey:   make(map[string]*cacheNode),
	}
	c.probation.init()
	c.protected.init()
	return c
}

func (c *Cache) segmentOf(n *cacheNode) *segment {
	if n.protected {
		return &c.protected
	}
	return &c.probation
}

// Get returns the cached result for key, making it the most recently
// used entry of protected.
func (c *Cache) Get(key string) (*CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.segmentOf(n).remove(n)
	n.protected = true
	c.protected.pushFront(n)
	if c.protected.n > c.protMax {
		d := c.protected.back()
		c.protected.remove(d)
		d.protected = false
		c.probation.pushFront(d)
	}
	return n.e, true
}

// peek returns the entry for key without touching the hit/miss counters
// or recency order. The worker uses it after Put to serve the bytes the
// cache actually retained, without that internal read inflating the
// user-visible hit counter.
func (c *Cache) peek(key string) (*CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	return n.e, true
}

// Put stores a result at the head of probation, evicting probation's
// least recently used entry when full. A duplicate key refreshes recency
// within its segment but keeps the FIRST stored bytes: results are
// deterministic, so a second computation of the same cell is
// bit-identical by contract, and keeping the original makes that
// contract observable (tests compare served bytes across submissions).
func (c *Cache) Put(e *CacheEntry) {
	if e.Digest == "" {
		e.Digest = ResultDigest(e.Result)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.byKey[e.Key]; ok {
		s := c.segmentOf(n)
		s.remove(n)
		s.pushFront(n)
		return
	}
	n := &cacheNode{e: e}
	c.byKey[e.Key] = n
	c.probation.pushFront(n)
	// Protected stays below max, so an overfull cache has a victim in
	// probation.
	for len(c.byKey) > c.max {
		victim := c.probation.back()
		c.probation.remove(victim)
		delete(c.byKey, victim.e.Key)
		c.evictions++
	}
}

// Remove drops the entry for key, reporting whether it was present.
func (c *Cache) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeLocked(key)
}

func (c *Cache) removeLocked(key string) bool {
	n, ok := c.byKey[key]
	if !ok {
		return false
	}
	c.segmentOf(n).remove(n)
	delete(c.byKey, key)
	return true
}

// VerifyEntry outcomes.
const (
	// VerifyMissing: the key is not cached (evicted or never stored) —
	// nothing to check, nothing to report.
	VerifyMissing = iota
	// VerifyOK: the stored bytes still hash to the recorded digest.
	VerifyOK
	// VerifyCorrupt: digest mismatch; the entry was removed under the
	// same lock acquisition and a copy is returned for quarantine.
	VerifyCorrupt
)

// VerifyEntry re-hashes the entry's result bytes against its recorded
// digest, removing it atomically on mismatch. Lookup, hash, and removal
// happen under one lock acquisition, so a concurrent eviction can never
// be mistaken for corruption (it reports VerifyMissing) and a corrupt
// entry can never be quarantined twice (the second caller sees
// VerifyMissing too). An entry stored without a digest is stamped by
// Put, so VerifyOK is the only other healthy outcome.
func (c *Cache) VerifyEntry(key string) (CacheEntry, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.byKey[key]
	if !ok {
		return CacheEntry{}, VerifyMissing
	}
	e := n.e
	if e.Digest == "" || ResultDigest(e.Result) == e.Digest {
		return *e, VerifyOK
	}
	c.removeLocked(key)
	return *e, VerifyCorrupt
}

// Keys returns the content addresses of every cached entry: protected
// from most to least recently used, then probation in the same
// direction. The fleet soak test diffs key sets across server
// incarnations to account for every simulated cycle exactly.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.byKey))
	for _, s := range [...]*segment{&c.protected, &c.probation} {
		for n := s.root.next; n != &s.root; n = n.next {
			out = append(out, n.e.Key)
		}
	}
	return out
}

// Entries returns a copy of every cached entry: probation from least to
// most recently used, then protected in the same direction. Snapshots
// and checkpoints list done records in this order and a reload Puts
// every entry into probation in it, so the reloaded cache lists the
// same Keys.
func (c *Cache) Entries() []CacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheEntry, 0, len(c.byKey))
	for _, s := range [...]*segment{&c.probation, &c.protected} {
		for n := s.root.prev; n != &s.root; n = n.prev {
			out = append(out, *n.e)
		}
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// Counters returns the hit/miss/eviction totals.
func (c *Cache) Counters() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
