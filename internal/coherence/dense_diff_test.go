package coherence

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// This file differentially tests the dense epoch-versioned line tables
// against a reference bus that keeps the pre-dense map-per-line storage.
// The two implementations share the protocol logic verbatim; only the
// storage layer differs, so driving both over the same randomized op
// stream and demanding identical states, results, stats and directory
// behavior pins down exactly the invariant the dense rewrite claims:
// byte-for-byte equivalence with the maps.

// refBus is the pre-dense-table bus: identical protocol code, map storage.
type refBus struct {
	ncores   int
	snoopers []Snooper
	states   map[mem.LineAddr][]State
	touched  map[mem.LineAddr]uint64
	nsubs    int
	filterOn bool

	compactEvery uint64
	sinceCompact uint64

	Stats Stats
}

func newRefBus(ncores int) *refBus {
	return &refBus{
		ncores:   ncores,
		snoopers: make([]Snooper, ncores),
		states:   make(map[mem.LineAddr][]State),
		touched:  make(map[mem.LineAddr]uint64),
		nsubs:    1,
	}
}

func (b *refBus) Register(id int, s Snooper) { b.snoopers[id] = s }

func (b *refBus) EnableSnoopFilter() {
	if b.ncores > 64 {
		return
	}
	b.filterOn = true
	b.compactEvery = DefaultFilterCompactionInterval
}

func (b *refBus) SetFilterCompactionInterval(n uint64) { b.compactEvery = n }
func (b *refBus) FilterDirectorySize() int             { return len(b.touched) }

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

func (b *refBus) markTouched(core int, line mem.LineAddr) {
	if !b.filterOn {
		return
	}
	b.touched[line] |= 1 << uint(core)
}

func (b *refBus) snoopTargets(line mem.LineAddr) uint64 { return b.touched[line] }

func (b *refBus) maybeCompact() {
	if !b.filterOn || b.compactEvery == 0 {
		return
	}
	b.sinceCompact++
	if b.sinceCompact < b.compactEvery {
		return
	}
	b.sinceCompact = 0
	b.CompactFilter()
}

func (b *refBus) CompactFilter() {
	if !b.filterOn {
		return
	}
	b.Stats.FilterCompactions++
	for line, mask := range b.touched {
		if _, live := b.states[line]; live {
			continue
		}
		held := false
		for c := 0; c < b.ncores; c++ {
			if mask&(1<<uint(c)) == 0 {
				continue
			}
			s := b.snoopers[c]
			if s == nil {
				continue
			}
			if h, ok := s.(StateHolder); ok {
				if h.HoldsLineState(line) {
					held = true
					break
				}
			} else {
				held = true
				break
			}
		}
		if !held {
			delete(b.touched, line)
			b.Stats.FilterEntriesDropped++
		}
	}
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
	b.maybeCompact()
	b.markTouched(core, line)
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
	b.maybeCompact()
	b.markTouched(core, line)
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
// behavior: it hash-decides conflicts, piggyback masks, per-line state
// holding, and occasionally performs a REENTRANT Drop on its own bus from
// inside Snoop — the hardest path the dense tables must survive (entry
// release while a caller holds the state slice).
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
	id   int
	drop func(core int, line mem.LineAddr, discard bool)
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
	if !p.Invalidating && h%5 == 0 {
		return Reply{WrittenMask: (h >> 32) & 0xF}
	}
	return Reply{}
}

func (s *diffSnooper) WouldConflict(p Probe) bool {
	return diffMix(uint64(p.Line), uint64(p.From), uint64(s.id), 0xc0fe)%3 == 0
}

func (s *diffSnooper) HoldsLineState(l mem.LineAddr) bool {
	return diffMix(uint64(l), uint64(s.id), 0x401d)%4 == 0
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
		name    string
		filter  bool
		compact uint64
	}{
		{"filter-off", false, 0},
		{"filter-on", true, 0},
		{"filter-compacting", true, 8},
	} {
		t.Run(variant.name, func(t *testing.T) {
			dense := NewBus(ncores, mem.DefaultGeometry)
			ref := newRefBus(ncores)
			for c := 0; c < ncores; c++ {
				dense.Register(c, &diffSnooper{id: c, drop: dense.Drop})
				ref.Register(c, &diffSnooper{id: c, drop: ref.Drop})
			}
			if variant.filter {
				dense.EnableSnoopFilter()
				ref.EnableSnoopFilter()
				dense.SetFilterCompactionInterval(variant.compact)
				ref.SetFilterCompactionInterval(variant.compact)
			}

			r := rng.New(0xd1ff)
			for op := 0; op < ops; op++ {
				core := r.Intn(ncores)
				line := lines[r.Intn(nlines)]
				off := r.Intn(56)
				size := 1 << uint(r.Intn(4))
				switch k := r.Intn(10); {
				case k < 4: // read
					tx := r.Intn(2) == 0
					force := r.Intn(8) == 0
					dr := dense.Read(core, line, off, size, tx, force)
					rr := ref.Read(core, line, off, size, tx, force)
					if dr != rr {
						t.Fatalf("op %d: Read(%d, %#x) dense %+v != ref %+v", op, core, uint64(line), dr, rr)
					}
				case k < 8: // write
					tx := r.Intn(2) == 0
					dw := dense.Write(core, line, off, size, tx)
					rw := ref.Write(core, line, off, size, tx)
					if dw != rw {
						t.Fatalf("op %d: Write(%d, %#x) dense %+v != ref %+v", op, core, uint64(line), dw, rw)
					}
				case k < 9: // drop
					discard := r.Intn(2) == 0
					dense.Drop(core, line, discard)
					ref.Drop(core, line, discard)
				default: // holder-wins pre-check
					inv := r.Intn(2) == 0
					dc := dense.WouldConflict(core, line, off, size, inv)
					rc := ref.WouldConflict(core, line, off, size, inv)
					if dc != rc {
						t.Fatalf("op %d: WouldConflict dense %v != ref %v", op, dc, rc)
					}
				}
				if op%97 == 0 {
					dense.CompactFilter()
					ref.CompactFilter()
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
		if dt, rt := dense.snoopTargets(l), ref.snoopTargets(l); dt != rt {
			t.Fatalf("op %d: snoopTargets(%#x) dense %#x != ref %#x", op, uint64(l), dt, rt)
		}
	}
	if dn, rn := dense.liveStateCount(), len(ref.states); dn != rn {
		t.Fatalf("op %d: live state entries dense %d != ref %d", op, dn, rn)
	}
	if df, rf := dense.FilterDirectorySize(), ref.FilterDirectorySize(); dense.filterOn && df != rf {
		t.Fatalf("op %d: directory size dense %d != ref %d", op, df, rf)
	}
	if dense.Stats != ref.Stats {
		t.Fatalf("op %d: stats diverged\ndense: %+v\nref:   %+v", op, dense.Stats, ref.Stats)
	}
	if err := dense.CheckAllInvariants(); err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
}
