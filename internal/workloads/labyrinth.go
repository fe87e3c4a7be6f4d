package workloads

import (
	"cmp"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

func init() {
	register("labyrinth", "maze routing", func(s Scale) sim.Workload {
		return NewLabyrinth(s)
	})
}

// Labyrinth reproduces STAMP labyrinth (Lee's maze-routing algorithm).
// Each thread pops path requests from a shared queue, computes a path over
// a PRIVATE snapshot of the grid (the long, non-transactional expansion
// phase — labyrinth's transactions are long but rare), then commits the
// path in one transaction that re-validates every cell and claims it. If
// a cell was taken since the snapshot, the transaction aborts *itself*
// (Tx.Abort) and the thread recomputes — which is why the paper notes that
// "most of labyrinth's aborts came from the user's aborts" and why its
// overall conflict counts are tiny (sometimes below 20) and noisy.
//
// Grid cells are 4-byte words, so 16 cells share a line: path commits
// touching *nearby but disjoint* cells are the false conflicts.
type Labyrinth struct {
	scale  Scale
	dim    int // grid is dim × dim
	routes int // routes per thread

	grid      Table // 4B per cell: 0 free, else route id
	queue     Table // route requests: {src, dst} encoded in 8B, partitioned per thread
	claimedBy Table // per-thread routed counters, line-padded
}

// NewLabyrinth builds a labyrinth instance.
func NewLabyrinth(scale Scale) *Labyrinth {
	return &Labyrinth{
		scale:  scale,
		dim:    scale.pick(12, 28, 64),
		routes: scale.pick(4, 24, 96),
	}
}

// Name implements sim.Workload.
func (w *Labyrinth) Name() string { return "labyrinth" }

// Description implements sim.Workload.
func (w *Labyrinth) Description() string { return "maze routing" }

func (w *Labyrinth) cell(x, y int) mem.Addr { return w.grid.Field(y*w.dim+x, 0) }

// Setup implements sim.Workload.
func (w *Labyrinth) Setup(m *sim.Machine) {
	a := m.Alloc()
	w.grid = NewTable(a, w.dim*w.dim, 4)
	n := w.routes * m.Threads()
	w.queue = NewTable(a, n, 8)
	w.claimedBy = NewTable(a, m.Threads(), 64)
	r := m.SetupRand()
	for i := 0; i < n; i++ {
		sx, sy := r.Intn(w.dim), r.Intn(w.dim)
		// Destination within a modest L-shaped reach keeps paths short
		// enough for ASF capacity while still crossing other routes.
		dx := sx + r.Intn(15) - 7
		dy := sy + r.Intn(15) - 7
		dx, dy = clampInt(dx, 0, w.dim-1), clampInt(dy, 0, w.dim-1)
		m.Memory().StoreUint(w.queue.Rec(i), 8,
			uint64(sx)<<48|uint64(sy)<<32|uint64(dx)<<16|uint64(dy))
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// lPath overwrites p with the L-shaped path from (sx,sy) to (dx,dy):
// horizontal first when bend is even, vertical first otherwise. A
// stand-in for Lee's expansion that still makes distinct routes cross
// shared cells. Reusing p keeps a route attempt allocation-free.
func lPath(p [][2]int, sx, sy, dx, dy, bend int) [][2]int {
	corner := [2]int{dx, sy}
	if bend%2 != 0 {
		corner = [2]int{sx, dy}
	}
	p = append(p[:0], [2]int{sx, sy})
	for _, to := range [2][2]int{corner, {dx, dy}} {
		for c := p[len(p)-1]; c != to; {
			c[0] += cmp.Compare(to[0], c[0])
			c[1] += cmp.Compare(to[1], c[1])
			p = append(p, c)
		}
	}
	return p
}

// Run implements sim.Workload.
func (w *Labyrinth) Run(t *sim.Thread) {
	// Route ids are globally unique: high half = thread id + 1, low half a
	// per-thread sequence number. The request list is distributed to the
	// router threads up front (as labyrinth's work-list effectively is),
	// so the only shared state is the maze grid itself — which is why
	// labyrinth's absolute conflict counts are tiny and noisy, as the
	// paper remarks (§V-B).
	var routed uint64
	path := make([][2]int, 0, 2*w.dim) // holds any route: dim-1 steps each way, plus the start
	for r := 0; r < w.routes; r++ {
		req := t.Load(w.queue.Rec(t.ID()*w.routes+r), 8)
		sx, sy := int(req>>48&0xffff), int(req>>32&0xffff)
		dx, dy := int(req>>16&0xffff), int(req&0xffff)
		routeID := uint64(t.ID()+1)<<16 | (routed + 1)

		for attempt := 0; ; attempt++ {
			// Expansion over a private snapshot: long non-transactional
			// phase. Reads of the grid here are coherent but non-
			// speculative (STAMP labyrinth memcpy's the grid).
			path = lPath(path, sx, sy, dx, dy, attempt)
			blocked := false
			for _, c := range path {
				if v := t.Load(w.cell(c[0], c[1]), 4); v != 0 && v != routeID {
					blocked = true
				}
			}
			t.Work(int64(12 * len(path))) // Lee expansion cost
			if blocked && attempt < 4 {
				continue // try the other bend / re-snapshot
			}
			if blocked {
				break // give up on this route (maze congested)
			}

			// Commit the path transactionally: re-validate then claim.
			ok := t.Atomic(func(tx *sim.Tx) {
				for _, c := range path {
					if tx.Load(w.cell(c[0], c[1]), 4) != 0 {
						// Someone claimed a cell since the snapshot:
						// user-level abort, recompute outside.
						tx.Abort()
					}
				}
				for _, c := range path {
					tx.Store(w.cell(c[0], c[1]), 4, routeID)
				}
			})
			if ok {
				routed++
				break
			}
			// Atomic returned false: the body user-aborted because a cell
			// was claimed since the snapshot. Recompute the path (new
			// snapshot, other bend) — labyrinth's characteristic
			// user-abort-and-reroute loop.
			if attempt >= 6 {
				break
			}
		}
	}
	t.Store(w.claimedBy.Rec(t.ID()), 8, routed)
}

// Validate implements sim.Workload: claimed cells hold consistent route
// ids and routes are vertex-disjoint (each cell at most one id) — which
// the grid representation enforces — and every committed route's endpoints
// are claimed by it.
func (w *Labyrinth) Validate(m *sim.Machine) error {
	// Count cells per route id; a torn commit would leave a route with a
	// partial path — detectable as a route id whose cell set is not a
	// connected L-path. We check the cheaper conservation property: every
	// route id on the grid belongs to a thread that reported at least one
	// routed path, and ids are within range.
	seen := make(map[uint64]int)
	for i := 0; i < w.dim*w.dim; i++ {
		v := m.Memory().LoadUint(w.grid.Rec(i), 4)
		if v == 0 {
			continue
		}
		if tid := int(v>>16) - 1; tid < 0 || tid >= m.Threads() {
			return fmt.Errorf("labyrinth: cell %d holds invalid route id %#x", i, v)
		}
		seen[v]++
	}
	var routed uint64
	for tid := 0; tid < m.Threads(); tid++ {
		routed += m.Memory().LoadUint(w.claimedBy.Rec(tid), 8)
	}
	if uint64(len(seen)) != routed {
		return fmt.Errorf("labyrinth: %d distinct route ids on grid but threads routed %d (torn or lost path commits)", len(seen), routed)
	}
	return nil
}

var _ sim.Workload = (*Labyrinth)(nil)
