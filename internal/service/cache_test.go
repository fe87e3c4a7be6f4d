package service

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
)

func entry(key, payload string) *CacheEntry {
	return &CacheEntry{Key: key, Workload: "w", SimCycles: 1, Result: json.RawMessage(payload)}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(entry("a", `"a"`))
	c.Put(entry("b", `"b"`))
	c.Get("a") // a becomes MRU; b is now the eviction candidate
	c.Put(entry("c", `"c"`))

	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("fresh entry c missing")
	}
	if _, _, ev := c.Counters(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

// TestCacheKeepsFirstBytes: a duplicate Put must not replace the stored
// result — the first bytes are the canonical copy every future hit
// serves, which is what makes repeat responses byte-identical.
func TestCacheKeepsFirstBytes(t *testing.T) {
	c := NewCache(4)
	c.Put(entry("k", `{"v":1}`))
	c.Put(entry("k", `{"v":1}`)) // deterministic duplicate
	got, ok := c.Get("k")
	if !ok {
		t.Fatal("entry missing")
	}
	if string(got.Result) != `{"v":1}` {
		t.Fatalf("stored bytes changed: %s", got.Result)
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate key grew the cache to %d", c.Len())
	}
}

// TestCacheSnapshotRoundTrip: Persist writes the cache as a compacted
// segment and a daemon booted on it gets the same entries, bytes and
// LRU order back. A missing snapshot is a clean first boot.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheEntries: 8, SnapshotPath: filepath.Join(dir, "cache.snap")}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Cache().Put(entry(fmt.Sprintf("k%d", i), fmt.Sprintf(`{"i":%d}`, i)))
	}
	s.Cache().Get("k1") // k1 becomes most recently used
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	want := s.Cache().Keys()
	s.Kill()

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	if got := r.Cache().Keys(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reloaded keys %v, want %v (same LRU order)", got, want)
	}
	for i := 0; i < 5; i++ {
		e, ok := r.Cache().Get(fmt.Sprintf("k%d", i))
		if !ok {
			t.Fatalf("k%d missing after reload", i)
		}
		if want := fmt.Sprintf(`{"i":%d}`, i); string(e.Result) != want {
			t.Fatalf("k%d bytes = %s, want %s", i, e.Result, want)
		}
	}

	// Missing file: clean first boot, not an error.
	fresh, err := New(Config{Workers: 1, SnapshotPath: filepath.Join(dir, "absent.snap")})
	if err != nil {
		t.Fatalf("missing snapshot errored: %v", err)
	}
	defer fresh.Kill()
	if fresh.Cache().Len() != 0 || fresh.Metrics().snapshotQuarantines != 0 {
		t.Fatal("a missing snapshot loaded entries or was quarantined")
	}
}

// TestCacheSnapshotSchemaGuard: a snapshot whose checkpoint names a
// different key schema is ignored wholesale — its addresses name
// different computations — and is not mistaken for corruption.
func TestCacheSnapshotSchemaGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	e := entry("k", `{}`)
	e.Digest = ResultDigest(e.Result)
	seg := []journalRecord{
		{Op: opCheckpoint, Seq: 1, KeySchema: keySchemaVersion + 1},
		{Op: opDone, Key: "k", Entry: e},
		{Op: opEnd, Count: 1},
	}
	if err := writeSegment(OSFS{}, path, seg); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	if s.Cache().Len() != 0 {
		t.Fatalf("stale-schema snapshot loaded %d entries, want 0", s.Cache().Len())
	}
	if q := s.Metrics().snapshotQuarantines; q != 0 || s.Recovery().SnapshotQuarantined != 0 {
		t.Fatalf("stale-schema snapshot treated as corruption: %d files, %d records", q, s.Recovery().SnapshotQuarantined)
	}
}
