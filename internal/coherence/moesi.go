// Package coherence implements the MOESI snooping protocol that the ASF
// system leaves intact and infers conflicts from. It tracks one coherence
// state per (core, line), broadcasts probes on reads and writes, and
// carries the paper's piggy-back "speculatively written sub-block" masks
// on data replies.
//
// The protocol layer knows nothing about transactions: conflict detection
// is performed by Snooper callbacks registered per core (implemented by the
// ASF engine in internal/core), exactly mirroring the paper's design point
// that the coherence protocol itself is unmodified while the speculative
// state rides along beside it.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// State is a MOESI coherence state.
type State uint8

const (
	Invalid   State = iota // I: no valid copy
	Shared                 // S: clean(ish) shared copy, memory or owner holds truth
	Exclusive              // E: sole clean copy
	Owned                  // O: dirty copy responsible for forwarding, sharers may exist
	Modified               // M: sole dirty copy
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Valid reports whether the state denotes a readable copy.
func (s State) Valid() bool { return s != Invalid }

// CanWriteSilently reports whether a non-transactional store may proceed
// without bus traffic (M) or with only a silent upgrade (E).
func (s State) CanWriteSilently() bool { return s == Modified || s == Exclusive }

// Probe is a coherence message as seen by a snooping core.
type Probe struct {
	From          int          // requesting core id
	Line          mem.LineAddr // probed line
	Idx           int          // Line's dense index in the bus's LineIndex
	Off, Size     int          // byte footprint of the triggering access within the line
	Invalidating  bool         // true for GetX/upgrade, false for GetS
	Transactional bool         // the triggering access is speculative
}

// Reply is a snooping core's response to a probe. WrittenMask is the
// paper's piggy-back payload: a bitmask of this core's speculatively
// written sub-blocks in the probed line (only meaningful on
// non-invalidating probes, and only when the responder supplied data).
type Reply struct {
	WrittenMask uint64
}

// Snooper receives every probe broadcast on the bus that originates from
// another core. Implementations perform transactional conflict checks and
// may abort transactions (which in turn may call back into the bus via
// Drop); the bus is written to tolerate such reentrant state changes.
type Snooper interface {
	Snoop(p Probe) Reply
}

// ConflictChecker is optionally implemented by snoopers that can answer,
// WITHOUT side effects, whether a probe would conflict with their live
// transaction. It enables NACK-based (holder-wins) resolution: the bus
// pre-checks before committing any state transition.
type ConflictChecker interface {
	WouldConflict(p Probe) bool
}

// WouldConflict runs the side-effect-free pre-check against every remote
// snooper implementing ConflictChecker. idx is the line's dense index.
func (b *Bus) WouldConflict(core, idx, off, size int, invalidating bool) bool {
	line := b.lines.Line(idx)
	targets := b.snoopTargets(idx)
	for c := 0; c < b.ncores; c++ {
		if c == core || b.snoopers[c] == nil {
			continue
		}
		if b.filterOn && targets&(1<<uint(c)) == 0 {
			continue
		}
		if cc, ok := b.snoopers[c].(ConflictChecker); ok {
			if cc.WouldConflict(Probe{
				From: core, Line: line, Idx: idx, Off: off, Size: size,
				Invalidating: invalidating, Transactional: true,
			}) {
				return true
			}
		}
	}
	return false
}

// Source says where the data for an access came from, which determines
// the latency the machine charges.
type Source int

const (
	SourceLocal  Source = iota // no data movement (upgrade hit / silent store)
	SourceRemote               // cache-to-cache transfer from another core
	SourceMemory               // fetched from main memory
)

func (s Source) String() string {
	switch s {
	case SourceLocal:
		return "local"
	case SourceRemote:
		return "remote"
	case SourceMemory:
		return "memory"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// Stats counts protocol events for the overhead accounting of §IV-E.
type Stats struct {
	ProbesShared      uint64 // GetS broadcasts
	ProbesInvalidate  uint64 // GetX/upgrade broadcasts
	DataFromRemote    uint64 // cache-to-cache transfers
	DataFromMemory    uint64 // memory fetches
	Upgrades          uint64 // write hits that only needed invalidations
	SilentStores      uint64 // stores satisfied with no bus traffic (M/E)
	Invalidations     uint64 // remote copies invalidated
	Writebacks        uint64 // dirty lines written back on eviction
	PiggybackedMasks  uint64 // replies that carried a non-zero written mask
	PiggybackBitsSent uint64 // total mask bits transferred (N per masked reply)
	FilteredSnoops    uint64 // per-core probe deliveries elided by the snoop filter
}

// Bus is the broadcast snooping interconnect plus the per-core MOESI state
// table. It is deliberately simple: every request is globally ordered
// (the simulator is single-threaded at any instant), so the protocol needs
// no transient states.
//
// Storage is dense rather than map-keyed: the bus owns a mem.LineIndexer
// that assigns each line a compact index in first-touch order, and both the
// state table and the snoop filter's holder set are flat slices over that
// index space. Callers resolve a line's index once and pass it to Read,
// Write and WouldConflict. A state entry is live only when its epoch stamp
// equals the bus epoch, so releasing an entry is one store and clearing
// every entry (Reset, for machine reuse) is one integer bump; a dead entry
// reads as all-Invalid, exactly as an absent map entry did.
type Bus struct {
	ncores     int
	snoopers   []Snooper
	registered uint64 // bit c set once snoopers[c] is registered (cores < 64 only)
	lines      *mem.LineIndexer
	states     []State  // index i's entry is states[i*ncores : (i+1)*ncores]
	stEpoch    []uint64 // states entry i live iff stEpoch[i] == epoch
	nsubs      int      // sub-blocks per line, for piggyback accounting

	// held is the snoop filter's holder set: bit c of held[i] is set
	// exactly while core c's snooper keeps per-line state for line index i
	// (speculative bits, dirty marks, or state retained inside an
	// invalidated line, §IV-D-2). Snoopers maintain it through Hold and
	// Release; see EnableSnoopFilter for how probes use it.
	held     []uint64
	filterOn bool

	epoch uint64 // current liveness stamp; starts at 1, bumped by Reset

	Stats Stats
}

// NewBus creates a bus for ncores cores and lines of geometry g. Snoopers
// are registered afterwards (the ASF engines need the bus to exist first).
func NewBus(ncores int, g mem.Geometry) *Bus {
	if ncores <= 0 {
		panic("coherence: NewBus with ncores <= 0")
	}
	return &Bus{
		ncores:   ncores,
		snoopers: make([]Snooper, ncores),
		lines:    mem.NewLineIndexer(g),
		nsubs:    1,
		epoch:    1,
	}
}

// Register installs the snooper for core id.
func (b *Bus) Register(id int, s Snooper) {
	b.snoopers[id] = s
	if id < 64 && s != nil {
		b.registered |= 1 << uint(id)
	}
}

// LineIndex exposes the bus's line indexer so per-core structures keyed by
// the same lines (engine speculative state, oracle footprints) can share
// one dense index space instead of each hashing addresses separately.
func (b *Bus) LineIndex() *mem.LineIndexer { return b.lines }

// Reset returns the bus to its just-constructed state (empty tables, zero
// stats, filter off, one sub-block) without reallocating: the liveness
// epoch is bumped, which kills every state entry at once, the holder bits
// of every index this run assigned are cleared, and the line indexer is
// cleared so a reused machine assigns indices in exactly fresh-machine
// order. Registered snoopers are kept; callers that rebuild their cores
// re-Register over them.
func (b *Bus) Reset() {
	b.epoch++
	clear(b.held[:min(len(b.held), b.lines.Len())])
	b.lines.Reset()
	b.filterOn = false
	b.nsubs = 1
	b.Stats = Stats{}
}

// ensure grows the dense tables to cover line index idx. The shared
// indexer can be ahead of the bus (other components assign indices too),
// so every bus lookup bounds-checks against its own slices.
func (b *Bus) ensure(idx int) {
	for len(b.stEpoch) <= idx {
		b.stEpoch = append(b.stEpoch, 0)
		b.held = append(b.held, 0)
		for c := 0; c < b.ncores; c++ {
			b.states = append(b.states, Invalid)
		}
	}
}

// EnableSnoopFilter turns on the snoop filter: a probe of a line (and a
// holder-wins pre-check) reaches only the cores that hold a valid copy of
// it or whose snooper holds per-line state for it (Hold). This is
// protocol-invisible and changes no detection result, because for every
// other core Snoop is a complete no-op: with no coherence copy there is
// nothing to invalidate, and with no per-line state no conflict can fire,
// no piggyback mask can be replied and no housekeeping is left to do.
//
// The one detection scheme this reasoning does NOT cover is Bloom
// signatures (core.ModeSignature): a signature can alias-hit on a line
// the core holds no state for — that false conflict is part of the
// modeled scheme and must fire. The machine therefore leaves the filter
// off for signature runs. Buses with more than 64 cores exceed the holder
// set's bitmask width and silently keep the filter off.
func (b *Bus) EnableSnoopFilter() {
	if b.ncores > 64 {
		return
	}
	b.filterOn = true
}

// Hold records that core's snooper now keeps per-line state for line index
// idx, and Release that it no longer does. A snooper must call Hold on
// every absent → present transition of its state for a line and Release
// on every present → absent one, whether or not the filter is on: the
// filter's soundness rests on the holder set being exact. Cores past the
// 64-bit mask width are not tracked (the filter stays off for them).
func (b *Bus) Hold(core, idx int) {
	if core >= 64 {
		return
	}
	b.ensure(idx)
	b.held[idx] |= 1 << uint(core)
}

// Release clears core's holder bit for line index idx (see Hold).
func (b *Bus) Release(core, idx int) {
	if core >= 64 || idx >= len(b.held) {
		return
	}
	b.held[idx] &^= 1 << uint(core)
}

// snoopTargets returns the bitmask of cores a probe of line index idx must
// reach: the holders plus every core with a valid copy. Only meaningful
// when the filter is on (which implies ncores <= 64, so every core has a
// bit); callers must check filterOn — a `1 << c` test against an all-ones
// sentinel would silently drop cores at c >= 64 because Go shifts past the
// width yield zero.
func (b *Bus) snoopTargets(idx int) uint64 {
	if idx >= len(b.stEpoch) {
		return 0
	}
	t := b.held[idx]
	if b.stEpoch[idx] == b.epoch {
		for c, s := range b.states[idx*b.ncores : (idx+1)*b.ncores] {
			if s != Invalid {
				t |= 1 << uint(c)
			}
		}
	}
	return t
}

// broadcast delivers p to every other core that must see it, in core
// order, and returns the OR of the piggyback masks they reply. With the
// filter on, the target set is fixed before the first delivery: a
// reentrant abort inside a Snoop drops only the aborting core's own
// lines, so it never gives another core state the set would miss.
func (b *Bus) broadcast(p Probe) (mask uint64) {
	if !b.filterOn {
		for c, s := range b.snoopers {
			if c != p.From && s != nil {
				mask |= s.Snoop(p).WrittenMask
			}
		}
		return mask
	}
	others := b.registered &^ (1 << uint(p.From))
	targets := b.snoopTargets(p.Idx) & others
	b.Stats.FilteredSnoops += uint64(bits.OnesCount64(others &^ targets))
	for t := targets; t != 0; t &= t - 1 {
		mask |= b.snoopers[bits.TrailingZeros64(t)].Snoop(p).WrittenMask
	}
	return mask
}

// SetSubBlocks tells the bus how many sub-blocks a piggyback mask covers,
// purely for the §IV-E traffic accounting.
func (b *Bus) SetSubBlocks(n int) { b.nsubs = n }

// NumCores returns the number of cores on the bus.
func (b *Bus) NumCores() int { return b.ncores }

// State returns core's coherence state for line.
func (b *Bus) State(core int, line mem.LineAddr) State {
	if idx, ok := b.lines.Lookup(line); ok {
		return b.StateAt(core, idx)
	}
	return Invalid
}

// StateAt returns core's coherence state for line index idx.
func (b *Bus) StateAt(core, idx int) State {
	if idx >= len(b.stEpoch) || b.stEpoch[idx] != b.epoch {
		return Invalid
	}
	return b.states[idx*b.ncores+core]
}

// liveEntry returns line's state slice without creating it; ok is false
// when the entry is absent (all cores Invalid by definition).
func (b *Bus) liveEntry(line mem.LineAddr) ([]State, bool) {
	idx, ok := b.lines.Lookup(line)
	if !ok || idx >= len(b.stEpoch) || b.stEpoch[idx] != b.epoch {
		return nil, false
	}
	return b.states[idx*b.ncores : (idx+1)*b.ncores], true
}

// entry returns line index idx's state slice, creating (and zeroing) it on
// first use this epoch. The returned slice is invalidated by any call that
// can grow the tables — exactly why Read and Write re-fetch it after snoops.
func (b *Bus) entry(idx int) []State {
	b.ensure(idx)
	st := b.states[idx*b.ncores : (idx+1)*b.ncores]
	if b.stEpoch[idx] != b.epoch {
		for c := range st {
			st[c] = Invalid
		}
		b.stEpoch[idx] = b.epoch
	}
	return st
}

// liveStateCount returns the number of live state-table entries; the dense
// analogue of len(states-map), used by tests.
func (b *Bus) liveStateCount() int {
	n := 0
	for _, e := range b.stEpoch {
		if e == b.epoch {
			n++
		}
	}
	return n
}

// hasLiveState reports whether a state-table entry exists for line; the
// dense analogue of a map presence check, used by tests.
func (b *Bus) hasLiveState(line mem.LineAddr) bool {
	_, ok := b.liveEntry(line)
	return ok
}

// ReadResult describes the outcome of a Read transaction on the bus.
type ReadResult struct {
	Source      Source
	WrittenMask uint64 // piggy-back mask from the data supplier (paper §IV-D-1)
}

// Read performs a load's coherence transaction for the requesting core on
// line index idx: broadcast a non-invalidating probe (GetS), locate the
// supplier, apply MOESI transitions, and return where the data came from
// along with any piggy-backed written-sub-block mask.
//
// force makes the request go to the bus even if the requester already has
// a valid copy — this is the paper's dirty-sub-block re-request, which is
// "treated as a local L1 cache miss" and sends a probe that aborts a
// still-running writer (§IV-C).
func (b *Bus) Read(core, idx, off, size int, tx, force bool) ReadResult {
	st := b.entry(idx)
	if st[core].Valid() && !force {
		// Pure local hit: no bus transaction. The caller should normally
		// not call Read in this case; tolerate it for robustness.
		return ReadResult{Source: SourceLocal}
	}
	b.Stats.ProbesShared++
	// Broadcast the probe to every other core. Snoopers run conflict
	// checks; an abort inside a snooper may Drop lines (including this
	// one), so supplier selection happens after all snoops complete.
	mask := b.broadcast(Probe{
		From: core, Line: b.lines.Line(idx), Idx: idx, Off: off, Size: size,
		Invalidating: false, Transactional: tx,
	})
	if mask != 0 {
		b.Stats.PiggybackedMasks++
		b.Stats.PiggybackBitsSent += uint64(b.nsubs)
	}
	// Re-fetch the state entry: a snooper that aborted a transaction may
	// have Dropped lines reentrantly, and if every copy went Invalid the
	// table entry was released — the slice captured above would then be
	// an orphan and updates to it would be lost.
	st = b.entry(idx)
	// Locate supplier among surviving states.
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
		// Cache-to-cache transfer; owner keeps responsibility for the
		// dirty data (M->O) or degrades to sharer (E->S).
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
		// Only S copies exist: MOESI serves the data from memory
		// (S copies do not forward).
		st[core] = Shared
		res.Source = SourceMemory
		b.Stats.DataFromMemory++
	default:
		// No remote copy at all: exclusive fill from memory. When the
		// requester already held the line (force re-request after the
		// writer aborted/committed), keep its old state if stronger.
		if !st[core].Valid() {
			st[core] = Exclusive
		}
		res.Source = SourceMemory
		b.Stats.DataFromMemory++
	}
	return res
}

// WriteResult describes the outcome of a Write transaction on the bus.
type WriteResult struct {
	Source        Source
	HadRemoteCopy bool // at least one remote valid copy was invalidated
	RemoteSnooped bool // a probe was actually broadcast
	SilentUpgrade bool // satisfied without any bus traffic
}

// Write performs a store's coherence transaction on line index idx:
// broadcast an invalidating probe (GetX / upgrade), invalidate remote
// copies, and leave the requester in M.
//
// Transactional stores ALWAYS broadcast (§IV-D-2: "it sends out an
// invalidation message as done by a cache coherence protocol"), even from
// M/E — this is also what keeps conflict checks against speculative state
// retained in remotely *invalidated* lines sound. Non-transactional stores
// use the standard silent-upgrade fast path.
func (b *Bus) Write(core, idx, off, size int, tx bool) WriteResult {
	st := b.entry(idx)
	if !tx && st[core].CanWriteSilently() {
		st[core] = Modified
		b.Stats.SilentStores++
		return WriteResult{Source: SourceLocal, SilentUpgrade: true}
	}
	b.Stats.ProbesInvalidate++
	b.broadcast(Probe{
		From: core, Line: b.lines.Line(idx), Idx: idx, Off: off, Size: size,
		Invalidating: true, Transactional: tx,
	})
	res := WriteResult{RemoteSnooped: true}
	// Re-fetch after snoops for the same reentrant-Drop reason as in Read.
	st = b.entry(idx)
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

// Drop removes core's copy of line from the protocol (capacity eviction or
// transactional abort discarding a speculatively written line). M or O
// copies count as a writeback for the statistics — except when discard is
// true (aborted speculative data is destroyed, not written back).
func (b *Bus) Drop(core int, line mem.LineAddr, discard bool) {
	idx, ok := b.lines.Lookup(line)
	if !ok || idx >= len(b.stEpoch) || b.stEpoch[idx] != b.epoch {
		return
	}
	st := b.states[idx*b.ncores : (idx+1)*b.ncores]
	switch st[core] {
	case Modified, Owned:
		if !discard {
			b.Stats.Writebacks++
		}
		// If an O copy is dropped while S copies remain, memory becomes
		// the owner; S copies stay valid. Nothing further to track.
	case Invalid:
		return
	}
	st[core] = Invalid
	// Release the table entry once every core is Invalid, keeping the live
	// state table proportional to the resident working set.
	for _, s := range st {
		if s != Invalid {
			return
		}
	}
	b.stEpoch[idx] = 0
}

// CheckInvariants verifies the global MOESI safety properties:
// at most one core in M or E; if a core is in M or E no other core holds a
// valid copy; at most one core in O. It is an alias of CheckAllInvariants,
// kept for API symmetry with CheckLineInvariants.
func (b *Bus) CheckInvariants() error { return b.CheckAllInvariants() }

// CheckLineInvariants verifies the MOESI safety properties for one line.
func (b *Bus) CheckLineInvariants(line mem.LineAddr) error {
	st, ok := b.liveEntry(line)
	if !ok {
		return nil
	}
	return checkLine(line, st)
}

// CheckAllInvariants verifies every resident line.
func (b *Bus) CheckAllInvariants() error {
	for idx := range b.stEpoch {
		if b.stEpoch[idx] != b.epoch {
			continue
		}
		line := b.lines.Line(idx)
		if err := checkLine(line, b.states[idx*b.ncores:(idx+1)*b.ncores]); err != nil {
			return err
		}
	}
	return nil
}

func checkLine(line mem.LineAddr, st []State) error {
	var nM, nE, nO, nValid int
	for _, s := range st {
		switch s {
		case Modified:
			nM++
			nValid++
		case Exclusive:
			nE++
			nValid++
		case Owned:
			nO++
			nValid++
		case Shared:
			nValid++
		}
	}
	if nM+nE > 1 {
		return fmt.Errorf("coherence: line %#x has %d M + %d E copies", uint64(line), nM, nE)
	}
	if (nM == 1 || nE == 1) && nValid > 1 {
		return fmt.Errorf("coherence: line %#x exclusive copy coexists with %d valid copies", uint64(line), nValid)
	}
	if nO > 1 {
		return fmt.Errorf("coherence: line %#x has %d owners", uint64(line), nO)
	}
	return nil
}

// ValidCopies returns the ids of cores holding a valid copy of line,
// in core order. Used by tests.
func (b *Bus) ValidCopies(line mem.LineAddr) []int {
	st, ok := b.liveEntry(line)
	if !ok {
		return nil
	}
	var out []int
	for c, s := range st {
		if s.Valid() {
			out = append(out, c)
		}
	}
	return out
}
