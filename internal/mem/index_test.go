package mem

import (
	"testing"
	"testing/quick"
)

// TestLineIndexerMatchesMapModel drives the paged indexer and a plain
// first-touch map with the same lines — near, far beyond the directory,
// and unaligned — across resets: indices, lookups and the inverse map
// must agree everywhere.
func TestLineIndexerMatchesMapModel(t *testing.T) {
	g := Geometry{LineSize: 64}
	f := func(raw []uint64, resetAt uint8) bool {
		x := NewLineIndexer(g)
		model := map[LineAddr]int{}
		var order []LineAddr
		for round := 0; round < 2; round++ {
			for i, r := range raw {
				var l LineAddr
				switch i % 3 {
				case 0:
					l = g.Line(Addr(r % (1 << 24))) // inside the directory
				case 1:
					l = LineAddr(r) &^ 63 // anywhere, mostly far
				default:
					l = LineAddr(r % (1 << 20)) // often unaligned
				}
				want, ok := model[l]
				if !ok {
					want = len(order)
					model[l] = want
					order = append(order, l)
				}
				if got := x.Index(l); got != want {
					return false
				}
				if got, ok := x.Lookup(l); !ok || got != want {
					return false
				}
				if int(resetAt)%8 == i {
					break
				}
			}
			if x.Len() != len(order) {
				return false
			}
			for i, l := range order {
				if x.Line(i) != l {
					return false
				}
			}
			x.Reset()
			for _, l := range order {
				if _, ok := x.Lookup(l); ok {
					return false
				}
			}
			model, order = map[LineAddr]int{}, nil
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLineIndexerGeometry: the table is keyed by line number, so distinct
// lines of a small or large geometry never share an entry.
func TestLineIndexerGeometry(t *testing.T) {
	for _, size := range []int{16, 32, 64, 128} {
		g := Geometry{LineSize: size}
		x := NewLineIndexer(g)
		for i := 0; i < 3000; i++ {
			if got := x.Index(LineAddr(i * size)); got != i {
				t.Fatalf("line size %d: line %d got index %d", size, i, got)
			}
		}
	}
}
