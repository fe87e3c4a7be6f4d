package workloads

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestLabyrinthPathsVertexDisjoint(t *testing.T) {
	// Each grid cell belongs to at most one route (the representation
	// enforces it); additionally every committed route's claimed cells
	// must form one contiguous L-path: count(route) == manhattan+1 for
	// one of the two bends' lengths is hard to recover post-hoc, so check
	// the weaker connectivity property: every claimed cell has a claimed
	// 4-neighbour with the same id unless the route is a single cell.
	w, err := New("labyrinth", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMachine(cfgFor(core.ModeSubBlock, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(w); err != nil {
		t.Fatal(err)
	}
	lab := w.(*Labyrinth)
	cell := func(x, y int) uint64 {
		return m.Memory().LoadUint(lab.grid.Rec(y*lab.dim+x), 4)
	}
	counts := make(map[uint64]int)
	for y := 0; y < lab.dim; y++ {
		for x := 0; x < lab.dim; x++ {
			if v := cell(x, y); v != 0 {
				counts[v]++
			}
		}
	}
	for y := 0; y < lab.dim; y++ {
		for x := 0; x < lab.dim; x++ {
			v := cell(x, y)
			if v == 0 || counts[v] == 1 {
				continue
			}
			connected := false
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx >= 0 && ny >= 0 && nx < lab.dim && ny < lab.dim && cell(nx, ny) == v {
					connected = true
				}
			}
			if !connected {
				t.Fatalf("cell (%d,%d) of route %#x is isolated: torn path commit", x, y, v)
			}
		}
	}
}

func TestLabyrinthUserAbortsDominate(t *testing.T) {
	// §V-B: "Most of labyrinth's aborts came from the user's aborts" —
	// validation failures against cells claimed since the snapshot.
	// Aggregate across seeds (counts are tiny and noisy, as the paper
	// itself warns).
	var user, conflict uint64
	for seed := uint64(1); seed <= 6; seed++ {
		w, err := New("labyrinth", ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.NewMachine(cfgFor(core.ModeBaseline, 0, seed))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Execute(w)
		if err != nil {
			t.Fatal(err)
		}
		user += r.AbortsBy[core.ReasonUser]
		conflict += r.AbortsBy[core.ReasonConflict]
	}
	if user == 0 {
		t.Skip("no user aborts across seeds (uncontended grids)")
	}
	t.Logf("labyrinth aborts: user=%d conflict=%d", user, conflict)
}

func TestLPathGeometry(t *testing.T) {
	for _, c := range []struct {
		sx, sy, dx, dy, bend, wantLen int
	}{
		{0, 0, 3, 0, 0, 4},
		{0, 0, 0, 3, 0, 4},
		{0, 0, 3, 2, 0, 6},
		{0, 0, 3, 2, 1, 6},
		{5, 5, 5, 5, 0, 1}, // degenerate: single cell
		{3, 3, 0, 0, 0, 7}, // negative direction
	} {
		p := lPath(nil, c.sx, c.sy, c.dx, c.dy, c.bend)
		if len(p) != c.wantLen {
			t.Errorf("lPath(%d,%d→%d,%d bend %d) length %d, want %d",
				c.sx, c.sy, c.dx, c.dy, c.bend, len(p), c.wantLen)
		}
		if p[0] != [2]int{c.sx, c.sy} || p[len(p)-1] != [2]int{c.dx, c.dy} {
			t.Errorf("lPath endpoints wrong: %v", p)
		}
		// Steps must be unit manhattan moves.
		for i := 1; i < len(p); i++ {
			dx, dy := p[i][0]-p[i-1][0], p[i][1]-p[i-1][1]
			if dx*dx+dy*dy != 1 {
				t.Errorf("non-unit step %v -> %v", p[i-1], p[i])
			}
		}
	}
}

func TestClampInt(t *testing.T) {
	if clampInt(-3, 0, 10) != 0 || clampInt(12, 0, 10) != 10 || clampInt(5, 0, 10) != 5 {
		t.Fatal("clampInt broken")
	}
}
