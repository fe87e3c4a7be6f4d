package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
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

// TestCacheHotSetSurvivesOneOffs: an entry that has been hit once sits
// in protected, so a run of one-off Puts longer than the bound churns
// probation and leaves it cached. A plain LRU evicts it.
func TestCacheHotSetSurvivesOneOffs(t *testing.T) {
	c := NewCache(10)
	for i := 0; i < 5; i++ {
		c.Put(entry(fmt.Sprintf("hot%d", i), `"h"`))
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.Get(fmt.Sprintf("hot%d", i)); !ok {
			t.Fatalf("hot%d missing before the one-offs", i)
		}
	}
	for i := 0; i < 25; i++ {
		c.Put(entry(fmt.Sprintf("once%d", i), `"o"`))
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.peek(fmt.Sprintf("hot%d", i)); !ok {
			t.Fatalf("hot%d evicted by one-off Puts", i)
		}
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
}

// TestCacheMixedStreamHitRatio models serve_mixed: 1 020 settled cells
// fill a 1 024-entry cache, then a seeded stream asks for a settled cell
// nine times in ten and for a never-seen one otherwise, storing every
// miss as the server does. A plain LRU reads about 0.74 here, because
// each one-off Put evicts a settled cell that is asked for again.
func TestCacheMixedStreamHitRatio(t *testing.T) {
	const settled, requests = 1020, 50_000
	c := NewCache(1024)
	for i := 0; i < settled; i++ {
		c.Put(entry(fmt.Sprintf("s%d", i), `"s"`))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < requests; i++ {
		key := fmt.Sprintf("once%d", i)
		if rng.Float64() < 0.9 {
			key = fmt.Sprintf("s%d", rng.Intn(settled))
		}
		if _, ok := c.Get(key); !ok {
			c.Put(entry(key, `"x"`))
		}
	}
	hits, misses, _ := c.Counters()
	ratio := float64(hits) / float64(hits+misses)
	t.Logf("hit ratio %.3f", ratio)
	if ratio < 0.80 {
		t.Fatalf("hit ratio %.3f, want >= 0.80", ratio)
	}
}

// TestCacheSweepRereadWithProtectedFull: with protected at its bound,
// probation still holds a fifth of the cache, so the 180 cells of a
// default paperfigs matrix Put one after another are all still there
// when the sweep is read again.
func TestCacheSweepRereadWithProtectedFull(t *testing.T) {
	c := NewCache(1024)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("old%d", i)
		c.Put(entry(k, `"o"`))
		c.Get(k)
	}
	if c.protected.n != c.protMax {
		t.Fatalf("protected holds %d, want it full at %d", c.protected.n, c.protMax)
	}
	for i := 0; i < 180; i++ {
		c.Put(entry(fmt.Sprintf("sweep%d", i), `"s"`))
	}
	for i := 0; i < 180; i++ {
		if _, ok := c.Get(fmt.Sprintf("sweep%d", i)); !ok {
			t.Fatalf("sweep%d missed on re-read", i)
		}
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
// segment and a daemon booted on it gets the same entries, bytes and key
// order back, from a cache that holds entries in both segments. The
// reload Puts every entry into probation. A missing snapshot is a clean
// first boot.
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
	s.Cache().Get("k1") // k1 and then k3 move to protected
	s.Cache().Get("k3")
	want := s.Cache().Keys()
	if fmt.Sprint(want) != "[k3 k1 k4 k2 k0]" {
		t.Fatalf("keys %v, want protected then probation, each most recent first", want)
	}
	if c := s.Cache(); c.protected.n != 2 || c.probation.n != 3 {
		t.Fatalf("segments hold %d protected and %d on probation, want 2 and 3", c.protected.n, c.probation.n)
	}
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	s.Kill()

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	if got := r.Cache().Keys(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reloaded keys %v, want %v (same order)", got, want)
	}
	if c := r.Cache(); c.protected.n != 0 || c.probation.n != 5 {
		t.Fatalf("reload left %d protected and %d on probation, want 0 and 5", c.protected.n, c.probation.n)
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

// FuzzCachePolicy drives a cache of 1 to 12 entries with a sequence of
// Put, Get, Remove and VerifyEntry calls over 16 keys, one call per op
// byte, and checks the policy's invariants after every step. A second
// kind of Put stores an entry whose digest does not match, so
// VerifyEntry also removes.
func FuzzCachePolicy(f *testing.F) {
	f.Add(uint8(1), []byte{0, 2, 5, 2, 7, 3, 4})
	f.Add(uint8(3), []byte{0, 5, 10, 15, 2, 7, 12, 20, 25, 30, 2, 17, 8, 9, 4, 1, 6, 14})
	f.Add(uint8(9), []byte{1, 4, 6, 9, 11, 14, 16, 19, 21, 24, 26, 29, 31, 34, 2, 7, 12, 17, 22})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		max := int(size%12) + 1
		c := NewCache(max)
		var gets uint64
		for step, op := range ops {
			key := fmt.Sprintf("k%d", op/5%16)
			switch op % 5 {
			case 0, 1:
				e := entry(key, `"v"`)
				if op%5 == 1 {
					e.Digest = "not-the-digest"
				}
				c.Put(e)
				if _, ok := c.peek(key); !ok {
					t.Fatalf("step %d: %s missing right after its Put", step, key)
				}
			case 2:
				c.Get(key)
				gets++
			case 3:
				c.Remove(key)
			case 4:
				if _, outcome := c.VerifyEntry(key); outcome == VerifyCorrupt {
					if _, ok := c.peek(key); ok {
						t.Fatalf("step %d: corrupt %s still cached", step, key)
					}
				}
			}
			checkCachePolicy(t, c, max, gets)
		}
	})
}

func checkCachePolicy(t *testing.T, c *Cache, max int, gets uint64) {
	t.Helper()
	if n := c.Len(); n > max {
		t.Fatalf("Len %d over the bound %d", n, max)
	}
	if c.protected.n > max*4/5 {
		t.Fatalf("protected holds %d, over 4/5 of %d", c.protected.n, max)
	}
	if c.protected.n+c.probation.n != len(c.byKey) {
		t.Fatalf("segments hold %d+%d entries, the key map %d", c.protected.n, c.probation.n, len(c.byKey))
	}
	for _, s := range []*segment{&c.protected, &c.probation} {
		for n := s.root.next; n != &s.root; n = n.next {
			if c.segmentOf(n) != s || c.byKey[n.e.Key] != n {
				t.Fatalf("node %s is in the wrong segment or not under its key", n.e.Key)
			}
		}
	}
	sameSet := func(what string, keys []string) {
		seen := make(map[string]bool, len(keys))
		for _, k := range keys {
			if _, ok := c.byKey[k]; !ok || seen[k] {
				t.Fatalf("%s lists %s, absent from the key map or twice", what, k)
			}
			seen[k] = true
		}
		if len(seen) != len(c.byKey) {
			t.Fatalf("%s lists %d keys, the key map holds %d", what, len(seen), len(c.byKey))
		}
	}
	sameSet("Keys", c.Keys())
	var entryKeys []string
	for _, e := range c.Entries() {
		entryKeys = append(entryKeys, e.Key)
	}
	sameSet("Entries", entryKeys)
	if hits, misses, _ := c.Counters(); hits+misses != gets {
		t.Fatalf("hits %d + misses %d != %d Gets", hits, misses, gets)
	}
}
