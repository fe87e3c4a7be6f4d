package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestScrubRaceWithEviction hammers a small cache with fresh entries —
// every Put past capacity evicts — while scrub passes walk the same
// cache. The invariant under -race: an entry that vanishes between the
// walk's key capture and its verification is VerifyMissing, never
// corruption. A single false corruption here would quarantine (and
// re-execute) healthy work every time the cache churns.
func TestScrubRaceWithEviction(t *testing.T) {
	srv, err := New(Config{
		Workers:       1,
		CacheEntries:  32,
		ScrubInterval: time.Hour, // armed; passes driven explicitly below
		AuditSeed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()

	put := func(i int) {
		result, _ := json.Marshal(map[string]any{"workload": "synthetic", "cycles": i})
		srv.Cache().Put(&CacheEntry{
			Key:      fmt.Sprintf("race-key-%06d", i),
			Workload: "synthetic",
			Result:   result,
		})
	}
	for i := 0; i < 32; i++ {
		put(i)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				put(1000*(w+1) + i)
			}
		}(w)
	}

	var scanned int
	for pass := 0; pass < 25; pass++ {
		rep := srv.ScrubPass()
		scanned += rep.Scanned
		if rep.Corruptions != 0 || rep.Mismatches != 0 {
			close(stop)
			wg.Wait()
			t.Fatalf("pass %d misreported eviction churn as corruption: %+v", pass, rep)
		}
	}
	close(stop)
	wg.Wait()

	if scanned == 0 {
		t.Fatal("scrub passes never scanned anything; the race was not exercised")
	}
	if got := srv.Metrics().ScrubCorruptions(); got != 0 {
		t.Fatalf("eviction churn was counted as %d corruptions", got)
	}
}
