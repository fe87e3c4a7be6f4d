package service

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ErrCorruptSnapshot reports that a snapshot file exists but does not
// decode. The server quarantines such a file (rename to
// <path>.corrupt-<timestamp>) and starts with an empty cache rather
// than refusing to boot.
var ErrCorruptSnapshot = errors.New("service: corrupt cache snapshot")

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
	// entry is stored. It rides in snapshots and replication frames so a
	// reloading or replicating node can prove the bytes it is about to
	// serve are the bytes that were computed.
	Digest string `json:"digest,omitempty"`

	// Cell is the canonical spec the result was computed from. It lets
	// the audit scrubber fully re-execute a sampled entry (and repair a
	// quarantined one) without consulting the journal. Entries loaded
	// from pre-audit snapshots have no Cell and get digest-only scrubs.
	Cell *canonicalCell `json:"cell,omitempty"`
}

// ResultDigest is the content digest recorded on cache entries: the hex
// SHA-256 of the canonical result bytes.
func ResultDigest(result []byte) string {
	sum := sha256.Sum256(result)
	return hex.EncodeToString(sum[:])
}

// Cache is a bounded LRU of cell results, safe for concurrent use, with
// JSON snapshot persistence (written on daemon shutdown, reloaded on
// start) so a restarted asfd keeps its accumulated sweep results.
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
// first (the same order snapshots use, so a reload or a replication
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

// snapshotFile is the on-disk schema. Entries are ordered least to most
// recently used so a reload rebuilds the same LRU order.
type snapshotFile struct {
	SchemaVersion int          `json:"schemaVersion"`
	Entries       []CacheEntry `json:"entries"`
}

// WriteSnapshot serializes the cache contents to w, in the encoding of
// snapshotFile. Entries are encoded one at a time, so writing a full
// cache costs one entry's encoding in memory, not the whole document.
func (c *Cache) WriteSnapshot(w io.Writer) error {
	c.mu.Lock()
	entries := make([]CacheEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		entries = append(entries, *el.Value.(*CacheEntry))
	}
	c.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"schemaVersion":%d,"entries":[`, keySchemaVersion)
	for i := range entries {
		b, err := json.Marshal(&entries[i])
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.Write(b)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// ReadSnapshot loads entries from a snapshot produced by WriteSnapshot,
// subject to the current size bound. A snapshot written under a
// different key schema is ignored wholesale: its addresses no longer
// name the same computations.
func (c *Cache) ReadSnapshot(r io.Reader) error {
	var f snapshotFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	if f.SchemaVersion != keySchemaVersion {
		return nil
	}
	for i := range f.Entries {
		e := f.Entries[i]
		c.Put(&e)
	}
	return nil
}

// SaveFile writes the snapshot atomically (temp file + rename) to path.
func (c *Cache) SaveFile(path string) error { return c.SaveFileFS(OSFS{}, path) }

// SaveFileFS is SaveFile over an explicit filesystem (the server passes
// its configured FS so the chaos harness can inject write failures).
// The temp file is fsync'd before the rename, so a crash straddling the
// save leaves either the previous snapshot or the new one, never a
// truncated file.
func (c *Cache) SaveFileFS(fsys FS, path string) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.WriteSnapshot(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Rename(tmp, path)
}

// LoadFile reads a snapshot from path; a missing file is not an error
// (first boot).
func (c *Cache) LoadFile(path string) error { return c.LoadFileFS(OSFS{}, path) }

// LoadFileFS is LoadFile over an explicit filesystem. A decode failure
// is reported as (a wrap of) ErrCorruptSnapshot so the caller can
// quarantine the file.
func (c *Cache) LoadFileFS(fsys FS, path string) error {
	_, err := c.LoadFileVerifiedFS(fsys, path, false)
	return err
}

// LoadFileVerifiedFS is LoadFileFS with optional per-entry integrity
// verification (-verify-snapshot): each entry's result bytes are
// re-hashed against its recorded digest, and mismatching entries —
// results silently corrupted at rest — are quarantined to
// <path>.quarantine as JSON lines and never enter the cache. Entries
// from pre-digest snapshots (no recorded digest) are accepted and
// stamped on Put. Returns the number of entries quarantined.
func (c *Cache) LoadFileVerifiedFS(fsys FS, path string, verify bool) (quarantined int, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()

	var snap snapshotFile
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	if snap.SchemaVersion != keySchemaVersion {
		return 0, nil
	}
	var quarantine File
	defer func() {
		if quarantine != nil {
			quarantine.Close()
		}
	}()
	for i := range snap.Entries {
		e := snap.Entries[i]
		if verify && e.Digest != "" && ResultDigest(e.Result) != e.Digest {
			if quarantine == nil {
				q, qerr := fsys.Append(path + ".quarantine")
				if qerr != nil {
					return quarantined, fmt.Errorf("service: opening snapshot quarantine: %w", qerr)
				}
				quarantine = q
			}
			line, _ := json.Marshal(&e)
			if _, werr := quarantine.Write(append(line, '\n')); werr != nil {
				return quarantined, fmt.Errorf("service: writing snapshot quarantine: %w", werr)
			}
			quarantined++
			continue
		}
		c.Put(&e)
	}
	return quarantined, nil
}
