package coherence

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// This file differentially tests the dense epoch-versioned line tables
// against a reference bus that keeps map-per-line storage. The two
// implementations share the protocol logic; only the storage layer and the
// shape of the delivery loop differ, so driving both over the same
// randomized op stream and demanding identical states, results, stats and
// snoop targets pins down exactly the invariant the dense tables claim:
// byte-for-byte equivalence with the maps.

// refBus is the map-storage reference bus. Its snoop filter is the holder
// set kept as a map, and its delivery loop tests every core's bit in turn.
type refBus struct {
	ncores   int
	snoopers []Snooper
	states   map[mem.LineAddr][]State
	held     map[mem.LineAddr]uint64
	nsubs    int
	filterOn bool

	Stats Stats
}

func newRefBus(ncores int) *refBus {
	return &refBus{
		ncores:   ncores,
		snoopers: make([]Snooper, ncores),
		states:   make(map[mem.LineAddr][]State),
		held:     make(map[mem.LineAddr]uint64),
		nsubs:    1,
	}
}

func (b *refBus) Register(id int, s Snooper) { b.snoopers[id] = s }

func (b *refBus) EnableSnoopFilter() {
	if b.ncores > 64 {
		return
	}
	b.filterOn = true
}

func (b *refBus) Hold(core int, line mem.LineAddr)    { b.held[line] |= 1 << uint(core) }
func (b *refBus) Release(core int, line mem.LineAddr) { b.held[line] &^= 1 << uint(core) }

func (b *refBus) entry(line mem.LineAddr) []State {
	st, ok := b.states[line]
	if !ok {
		st = make([]State, b.ncores)
		b.states[line] = st
	}
	return st
}

func (b *refBus) maybeRelease(line mem.LineAddr) {
	st, ok := b.states[line]
	if !ok {
		return
	}
	for _, s := range st {
		if s != Invalid {
			return
		}
	}
	delete(b.states, line)
}

// snoopTargets is the holder set plus every core with a valid copy.
func (b *refBus) snoopTargets(line mem.LineAddr) uint64 {
	t := b.held[line]
	for c, s := range b.states[line] {
		if s.Valid() {
			t |= 1 << uint(c)
		}
	}
	return t
}

func (b *refBus) State(core int, line mem.LineAddr) State {
	if st, ok := b.states[line]; ok {
		return st[core]
	}
	return Invalid
}

func (b *refBus) WouldConflict(core int, line mem.LineAddr, off, size int, invalidating bool) bool {
	targets := b.snoopTargets(line)
	for c := 0; c < b.ncores; c++ {
		if c == core || b.snoopers[c] == nil {
			continue
		}
		if b.filterOn && targets&(1<<uint(c)) == 0 {
			continue
		}
		if cc, ok := b.snoopers[c].(ConflictChecker); ok {
			if cc.WouldConflict(Probe{
				From: core, Line: line, Off: off, Size: size,
				Invalidating: invalidating, Transactional: true,
			}) {
				return true
			}
		}
	}
	return false
}

func (b *refBus) Read(core int, line mem.LineAddr, off, size int, tx, force bool) ReadResult {
	st := b.entry(line)
	if st[core].Valid() && !force {
		return ReadResult{Source: SourceLocal}
	}
	b.Stats.ProbesShared++
	var mask uint64
	targets := b.snoopTargets(line)
	for c := 0; c < b.ncores; c++ {
		if c == core || b.snoopers[c] == nil {
			continue
		}
		if b.filterOn && targets&(1<<uint(c)) == 0 {
			b.Stats.FilteredSnoops++
			continue
		}
		r := b.snoopers[c].Snoop(Probe{
			From: core, Line: line, Off: off, Size: size,
			Invalidating: false, Transactional: tx,
		})
		mask |= r.WrittenMask
	}
	if mask != 0 {
		b.Stats.PiggybackedMasks++
		b.Stats.PiggybackBitsSent += uint64(b.nsubs)
	}
	st = b.entry(line)
	supplier := -1
	anyValid := false
	for c := 0; c < b.ncores; c++ {
		if c == core {
			continue
		}
		switch st[c] {
		case Modified, Owned, Exclusive:
			supplier = c
		case Shared:
			anyValid = true
		}
	}
	res := ReadResult{WrittenMask: mask}
	switch {
	case supplier >= 0:
		switch st[supplier] {
		case Modified:
			st[supplier] = Owned
		case Exclusive:
			st[supplier] = Shared
		}
		st[core] = Shared
		res.Source = SourceRemote
		b.Stats.DataFromRemote++
	case anyValid:
		st[core] = Shared
		res.Source = SourceMemory
		b.Stats.DataFromMemory++
	default:
		if !st[core].Valid() {
			st[core] = Exclusive
		}
		res.Source = SourceMemory
		b.Stats.DataFromMemory++
	}
	return res
}

func (b *refBus) Write(core int, line mem.LineAddr, off, size int, tx bool) WriteResult {
	st := b.entry(line)
	if !tx && st[core].CanWriteSilently() {
		st[core] = Modified
		b.Stats.SilentStores++
		return WriteResult{Source: SourceLocal, SilentUpgrade: true}
	}
	b.Stats.ProbesInvalidate++
	targets := b.snoopTargets(line)
	for c := 0; c < b.ncores; c++ {
		if c == core || b.snoopers[c] == nil {
			continue
		}
		if b.filterOn && targets&(1<<uint(c)) == 0 {
			b.Stats.FilteredSnoops++
			continue
		}
		b.snoopers[c].Snoop(Probe{
			From: core, Line: line, Off: off, Size: size,
			Invalidating: true, Transactional: tx,
		})
	}
	res := WriteResult{RemoteSnooped: true}
	st = b.entry(line)
	supplier := -1
	for c := 0; c < b.ncores; c++ {
		if c == core {
			continue
		}
		if st[c].Valid() {
			res.HadRemoteCopy = true
			if st[c] == Modified || st[c] == Owned || st[c] == Exclusive {
				supplier = c
			}
			st[c] = Invalid
			b.Stats.Invalidations++
		}
	}
	hadLocal := st[core].Valid()
	st[core] = Modified
	switch {
	case hadLocal:
		res.Source = SourceLocal
		if res.HadRemoteCopy {
			b.Stats.Upgrades++
		}
	case supplier >= 0:
		res.Source = SourceRemote
		b.Stats.DataFromRemote++
	default:
		res.Source = SourceMemory
		b.Stats.DataFromMemory++
	}
	return res
}

func (b *refBus) Drop(core int, line mem.LineAddr, discard bool) {
	st, ok := b.states[line]
	if !ok {
		return
	}
	switch st[core] {
	case Modified, Owned:
		if !discard {
			b.Stats.Writebacks++
		}
	case Invalid:
		return
	}
	st[core] = Invalid
	b.maybeRelease(line)
}

// ---------------------------------------------------------------------------
// Deterministic stub snooper, instantiated once per bus with identical
// behavior: it hash-decides conflicts and piggyback masks, and sometimes
// performs a REENTRANT Drop of its own copy or Release of its own holder
// bit from inside Snoop (an abort, or an engine forgetting its state) — the
// hardest paths the dense tables must survive (entry release while a
// caller holds the state slice, holder-set change mid-broadcast).
// ---------------------------------------------------------------------------

func diffMix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

type diffSnooper struct {
	id      int
	drop    func(core int, line mem.LineAddr, discard bool)
	release func(core int, line mem.LineAddr)
}

func (s *diffSnooper) Snoop(p Probe) Reply {
	inv := uint64(0)
	if p.Invalidating {
		inv = 1
	}
	h := diffMix(uint64(p.Line), uint64(p.From), uint64(s.id), inv)
	if h%7 == 0 {
		// Reentrant release of our own copy mid-broadcast.
		s.drop(s.id, p.Line, h&8 != 0)
	}
	if h%11 == 0 {
		// Reentrant release of our own per-line state.
		s.release(s.id, p.Line)
	}
	if !p.Invalidating && h%5 == 0 {
		return Reply{WrittenMask: (h >> 32) & 0xF}
	}
	return Reply{}
}

func (s *diffSnooper) WouldConflict(p Probe) bool {
	return diffMix(uint64(p.Line), uint64(p.From), uint64(s.id), 0xc0fe)%3 == 0
}

// TestDenseBusMatchesMapReference drives the dense bus and the map
// reference through one seeded random op stream and demands equality of
// every observable after every op.
func TestDenseBusMatchesMapReference(t *testing.T) {
	const (
		ncores = 4
		nlines = 24
		ops    = 6000
	)
	lines := make([]mem.LineAddr, nlines)
	for i := range lines {
		lines[i] = mem.LineAddr(uint64(i+1) * 64)
	}

	for _, variant := range []struct {
		name   string
		filter bool
	}{
		{"filter-off", false},
		{"filter-on", true},
	} {
		t.Run(variant.name, func(t *testing.T) {
			dense := NewBus(ncores, mem.DefaultGeometry)
			ref := newRefBus(ncores)
			denseRelease := func(core int, l mem.LineAddr) { dense.Release(core, dense.LineIndex().Index(l)) }
			for c := 0; c < ncores; c++ {
				dense.Register(c, &diffSnooper{id: c, drop: dense.Drop, release: denseRelease})
				ref.Register(c, &diffSnooper{id: c, drop: ref.Drop, release: ref.Release})
			}
			if variant.filter {
				dense.EnableSnoopFilter()
				ref.EnableSnoopFilter()
			}

			r := rng.New(0xd1ff)
			for op := 0; op < ops; op++ {
				core := r.Intn(ncores)
				line := lines[r.Intn(nlines)]
				idx := dense.LineIndex().Index(line)
				off := r.Intn(56)
				size := 1 << uint(r.Intn(4))
				switch k := r.Intn(12); {
				case k < 4: // read
					tx := r.Intn(2) == 0
					force := r.Intn(8) == 0
					dr := dense.Read(core, idx, off, size, tx, force)
					rr := ref.Read(core, line, off, size, tx, force)
					if dr != rr {
						t.Fatalf("op %d: Read(%d, %#x) dense %+v != ref %+v", op, core, uint64(line), dr, rr)
					}
				case k < 8: // write
					tx := r.Intn(2) == 0
					dw := dense.Write(core, idx, off, size, tx)
					rw := ref.Write(core, line, off, size, tx)
					if dw != rw {
						t.Fatalf("op %d: Write(%d, %#x) dense %+v != ref %+v", op, core, uint64(line), dw, rw)
					}
				case k < 9: // drop
					discard := r.Intn(2) == 0
					dense.Drop(core, line, discard)
					ref.Drop(core, line, discard)
				case k < 11: // the core's own per-line state appears or goes
					if r.Intn(2) == 0 {
						dense.Hold(core, idx)
						ref.Hold(core, line)
					} else {
						dense.Release(core, idx)
						ref.Release(core, line)
					}
				default: // holder-wins pre-check
					inv := r.Intn(2) == 0
					dc := dense.WouldConflict(core, idx, off, size, inv)
					rc := ref.WouldConflict(core, line, off, size, inv)
					if dc != rc {
						t.Fatalf("op %d: WouldConflict dense %v != ref %v", op, dc, rc)
					}
				}
				compareBuses(t, op, dense, ref, lines)
			}
		})
	}
}

func compareBuses(t *testing.T, op int, dense *Bus, ref *refBus, lines []mem.LineAddr) {
	t.Helper()
	for _, l := range lines {
		for c := 0; c < dense.ncores; c++ {
			if ds, rs := dense.State(c, l), ref.State(c, l); ds != rs {
				t.Fatalf("op %d: state(%d, %#x) dense %v != ref %v", op, c, uint64(l), ds, rs)
			}
		}
		if dh, rh := dense.hasLiveState(l), func() bool { _, ok := ref.states[l]; return ok }(); dh != rh {
			t.Fatalf("op %d: live-entry(%#x) dense %v != ref %v", op, uint64(l), dh, rh)
		}
		if dt, rt := dense.snoopTargets(dense.LineIndex().Index(l)), ref.snoopTargets(l); dt != rt {
			t.Fatalf("op %d: snoopTargets(%#x) dense %#x != ref %#x", op, uint64(l), dt, rt)
		}
	}
	if dn, rn := dense.liveStateCount(), len(ref.states); dn != rn {
		t.Fatalf("op %d: live state entries dense %d != ref %d", op, dn, rn)
	}
	if dense.Stats != ref.Stats {
		t.Fatalf("op %d: stats diverged\ndense: %+v\nref:   %+v", op, dense.Stats, ref.Stats)
	}
	if err := dense.CheckAllInvariants(); err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
}
