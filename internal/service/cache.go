package service

import (
	"container/list"
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

// Cache is a bounded LRU of cell results, safe for concurrent use. The
// server persists it as done records in a compacted log segment (the
// cache snapshot), so a restarted asfd keeps its accumulated results.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *CacheEntry
	byKey map[string]*list.Element

	hits, misses, evictions uint64
}

// NewCache returns a cache bounded to max entries (max <= 0 means 1024).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 1024
	}
	return &Cache{
		max:   max,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// Get returns the cached result for key, marking it most recently used.
func (c *Cache) Get(key string) (*CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*CacheEntry), true
}

// peek returns the entry for key without touching the hit/miss counters
// or recency order. The worker uses it after Put to serve the bytes the
// cache actually retained, without that internal read inflating the
// user-visible hit counter.
func (c *Cache) peek(key string) (*CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*CacheEntry), true
}

// Put stores a result under its key, evicting the least recently used
// entry when full. A duplicate key refreshes recency but keeps the FIRST
// stored bytes: results are deterministic, so a second computation of
// the same cell is bit-identical by contract, and keeping the original
// makes that contract observable (tests compare served bytes across
// submissions).
func (c *Cache) Put(e *CacheEntry) {
	if e.Digest == "" {
		e.Digest = ResultDigest(e.Result)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.Key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[e.Key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*CacheEntry).Key)
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
	el, ok := c.byKey[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
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
	el, ok := c.byKey[key]
	if !ok {
		return CacheEntry{}, VerifyMissing
	}
	e := el.Value.(*CacheEntry)
	if e.Digest == "" || ResultDigest(e.Result) == e.Digest {
		return *e, VerifyOK
	}
	c.removeLocked(key)
	return *e, VerifyCorrupt
}

// Keys returns the content addresses of every cached entry, most
// recently used first. The fleet soak test diffs key sets across server
// incarnations to account for every simulated cycle exactly.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*CacheEntry).Key)
	}
	return out
}

// Entries returns a copy of every cached entry, least recently used
// first (the order segments are written in, so a reload or a replication
// sync rebuilds the same LRU order).
func (c *Cache) Entries() []CacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*CacheEntry))
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters returns the hit/miss/eviction totals.
func (c *Cache) Counters() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
