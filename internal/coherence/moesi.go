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

// StateHolder is optionally implemented by snoopers that can report,
// without side effects, whether they hold ANY per-line state for a line
// (speculative bits, dirty marks, retained-invalid state). The snoop
// filter's epoch compaction uses it to prove a directory entry dead: a
// core with no coherence copy and no per-line state treats any probe of
// the line as a complete no-op, so its filter bit can be dropped without
// changing a single detection outcome. Snoopers that do not implement it
// are conservatively assumed to always hold state (their entries are
// never compacted).
type StateHolder interface {
	HoldsLineState(l mem.LineAddr) bool
}

// WouldConflict runs the side-effect-free pre-check against every remote
// snooper implementing ConflictChecker.
func (b *Bus) WouldConflict(core int, line mem.LineAddr, off, size int, invalidating bool) bool {
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

	// Snoop-filter directory compaction (epoch-based; see CompactFilter).
	FilterCompactions    uint64 // compaction passes run
	FilterEntriesDropped uint64 // directory entries reclaimed by compaction
}

// Bus is the broadcast snooping interconnect plus the per-core MOESI state
// table. It is deliberately simple: every request is globally ordered
// (the simulator is single-threaded at any instant), so the protocol needs
// no transient states.
//
// Storage is dense rather than map-keyed: the bus owns a mem.LineIndexer
// that assigns each line a compact index in first-touch order, and both the
// state table and the snoop-filter directory are flat slices over that
// index space. An entry is live only when its epoch stamp equals the bus
// epoch, so releasing an entry is one store and clearing everything (Reset,
// for machine reuse) is one integer bump. The semantics are exactly those
// of the former maps: a dead state entry reads as all-Invalid, a dead
// directory entry as never-touched.
type Bus struct {
	ncores   int
	snoopers []Snooper
	lines    *mem.LineIndexer
	states   []State  // index i's entry is states[i*ncores : (i+1)*ncores]
	stEpoch  []uint64 // states entry i live iff stEpoch[i] == epoch
	nsubs    int      // sub-blocks per line, for piggyback accounting

	// touched is the snoop-filter directory: bit c of touched[i] is set
	// once core c has issued any bus transaction for line index i. The set
	// is MONOTONE — bits are never cleared, even when every coherence copy
	// is released — because a core may retain speculative state inside an
	// invalidated line (§IV-D-2) long after its copy left the protocol,
	// and that state must keep seeing probes. See EnableSnoopFilter for
	// the soundness argument.
	touched  []uint64
	tEpoch   []uint64 // touched entry i live iff tEpoch[i] == epoch
	tCount   int      // number of live directory entries
	filterOn bool

	epoch uint64 // current liveness stamp; starts at 1, bumped by Reset

	// Epoch-based directory compaction: every compactEvery bus
	// transactions, touched entries whose lines are provably dead (no
	// coherence copy anywhere, no snooper holding per-line state) are
	// reclaimed, so long traces with churning working sets don't grow the
	// directory without bound. 0 disables compaction.
	compactEvery uint64
	sinceCompact uint64

	Stats Stats
}

// DefaultFilterCompactionInterval is the bus-transaction count between
// snoop-filter compaction passes. Large enough that the linear directory
// scan amortizes to noise, small enough that the directory tracks the
// resident working set rather than the whole trace history.
const DefaultFilterCompactionInterval = 1 << 16

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
func (b *Bus) Register(id int, s Snooper) { b.snoopers[id] = s }

// LineIndex exposes the bus's line indexer so per-core structures keyed by
// the same lines (engine speculative state, oracle footprints) can share
// one dense index space instead of each hashing addresses separately.
func (b *Bus) LineIndex() *mem.LineIndexer { return b.lines }

// Reset returns the bus to its just-constructed state (empty tables, zero
// stats, filter off, one sub-block) without reallocating: the liveness
// epoch is bumped, which kills every state and directory entry at once,
// and the line indexer is cleared so a reused machine assigns indices in
// exactly fresh-machine order. Registered snoopers are kept; callers that
// rebuild their cores re-Register over them.
func (b *Bus) Reset() {
	b.epoch++
	b.lines.Reset()
	b.tCount = 0
	b.filterOn = false
	b.compactEvery = 0
	b.sinceCompact = 0
	b.nsubs = 1
	b.Stats = Stats{}
}

// ensure grows the dense tables to cover line index idx. The shared
// indexer can be ahead of the bus (other components assign indices too),
// so every bus lookup bounds-checks against its own slices.
func (b *Bus) ensure(idx int) {
	for len(b.stEpoch) <= idx {
		b.stEpoch = append(b.stEpoch, 0)
		b.tEpoch = append(b.tEpoch, 0)
		b.touched = append(b.touched, 0)
		for c := 0; c < b.ncores; c++ {
			b.states = append(b.states, Invalid)
		}
	}
}

// EnableSnoopFilter turns on the ever-touched snoop filter: probe
// broadcasts (and holder-wins pre-checks) skip cores that have never
// issued a bus transaction for the probed line. This is protocol-invisible
// and changes no detection result, because for such a core Snoop is a
// complete no-op: it holds no coherence state for the line (only its own
// Read/Write install one) and no speculative per-line state (markSpec and
// piggyback marks only follow its own bus transactions), so the snoop
// could neither conflict, reply with a mask, nor have housekeeping to do.
//
// The one detection scheme this reasoning does NOT cover is Bloom
// signatures (core.ModeSignature): a signature can alias-hit on a line
// the core never touched — that false conflict is part of the modeled
// scheme and must fire. The machine therefore leaves the filter off for
// signature runs. Buses with more than 64 cores exceed the directory's
// bitmask width and silently keep the filter off.
func (b *Bus) EnableSnoopFilter() {
	if b.ncores > 64 {
		return
	}
	b.filterOn = true
	b.compactEvery = DefaultFilterCompactionInterval
}

// SetFilterCompactionInterval overrides the number of bus transactions
// between snoop-filter compaction passes (0 disables compaction, which
// restores the original grow-without-bound monotone directory). Any
// value yields bit-identical simulation results — compaction only drops
// entries whose probes were already no-ops — so this knob exists for
// tests and memory tuning, not correctness.
func (b *Bus) SetFilterCompactionInterval(n uint64) { b.compactEvery = n }

// FilterDirectorySize returns the number of lines currently tracked by
// the snoop-filter directory (0 when the filter is off).
func (b *Bus) FilterDirectorySize() int { return b.tCount }

// maybeCompact ticks the compaction epoch; called once per bus
// transaction, before any probe of that transaction is delivered.
func (b *Bus) maybeCompact() {
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

// CompactFilter reclaims snoop-filter directory entries for dead lines.
// An entry is dead when (a) no core holds a coherence copy of the line —
// the state-table entry was released — and (b) no snooper whose filter
// bit is set still holds per-line state for it (StateHolder). For such a
// line every elided probe was already a complete no-op, so dropping the
// entry changes no detection outcome and no simulated cycle; a core that
// touches the line again simply re-registers via markTouched, exactly as
// it did the first time. The per-line predicate is independent of every
// other line, so the scan order (index order here, map order before the
// dense tables) cannot influence anything observable and determinism is
// preserved.
func (b *Bus) CompactFilter() {
	if !b.filterOn {
		return
	}
	b.Stats.FilterCompactions++
	for idx := range b.tEpoch {
		if b.tEpoch[idx] != b.epoch {
			continue
		}
		if b.stEpoch[idx] == b.epoch {
			continue
		}
		line := b.lines.Line(idx)
		mask := b.touched[idx]
		held := false
		for c := 0; c < b.ncores; c++ {
			if mask&(1<<uint(c)) == 0 {
				continue
			}
			s := b.snoopers[c]
			if s == nil {
				// No snooper registered: probes to this core are skipped
				// unconditionally, so its bit holds nothing alive.
				continue
			}
			if h, ok := s.(StateHolder); ok {
				if h.HoldsLineState(line) {
					held = true
					break
				}
			} else {
				// Unknown snooper implementation: assume it cares.
				held = true
				break
			}
		}
		if !held {
			b.tEpoch[idx] = 0
			b.tCount--
			b.Stats.FilterEntriesDropped++
		}
	}
}

// markTouched records core as a (past or present) toucher of line.
func (b *Bus) markTouched(core int, line mem.LineAddr) {
	if !b.filterOn {
		return
	}
	idx := b.lines.Index(line)
	b.ensure(idx)
	if b.tEpoch[idx] != b.epoch {
		b.tEpoch[idx] = b.epoch
		b.touched[idx] = 0
		b.tCount++
	}
	b.touched[idx] |= 1 << uint(core)
}

// snoopTargets returns the bitmask of cores whose snoopers must see a
// probe of line. Only meaningful when the filter is on (which implies
// ncores <= 64, so every core has a bit); callers must check filterOn —
// a `1 << c` test against an all-ones sentinel would silently drop cores
// at c >= 64 because Go shifts past the width yield zero.
func (b *Bus) snoopTargets(line mem.LineAddr) uint64 {
	if idx, ok := b.lines.Lookup(line); ok && idx < len(b.tEpoch) && b.tEpoch[idx] == b.epoch {
		return b.touched[idx]
	}
	return 0
}

// SetSubBlocks tells the bus how many sub-blocks a piggyback mask covers,
// purely for the §IV-E traffic accounting.
func (b *Bus) SetSubBlocks(n int) { b.nsubs = n }

// NumCores returns the number of cores on the bus.
func (b *Bus) NumCores() int { return b.ncores }

// State returns core's coherence state for line.
func (b *Bus) State(core int, line mem.LineAddr) State {
	if st, ok := b.liveEntry(line); ok {
		return st[core]
	}
	return Invalid
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

// entry returns line's state slice, creating (and zeroing) it on first use
// this epoch. The returned slice is invalidated by any call that can grow
// the tables — exactly why Read and Write re-fetch it after snoops.
func (b *Bus) entry(line mem.LineAddr) []State {
	idx := b.lines.Index(line)
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

// maybeRelease kills the table entry when every core is Invalid, keeping
// the live state table proportional to the resident working set.
func (b *Bus) maybeRelease(line mem.LineAddr) {
	st, ok := b.liveEntry(line)
	if !ok {
		return
	}
	for _, s := range st {
		if s != Invalid {
			return
		}
	}
	idx, _ := b.lines.Lookup(line)
	b.stEpoch[idx] = 0
}

// ReadResult describes the outcome of a Read transaction on the bus.
type ReadResult struct {
	Source      Source
	WrittenMask uint64 // piggy-back mask from the data supplier (paper §IV-D-1)
}

// Read performs a load's coherence transaction for the requesting core:
// broadcast a non-invalidating probe (GetS), locate the supplier, apply
// MOESI transitions, and return where the data came from along with any
// piggy-backed written-sub-block mask.
//
// force makes the request go to the bus even if the requester already has
// a valid copy — this is the paper's dirty-sub-block re-request, which is
// "treated as a local L1 cache miss" and sends a probe that aborts a
// still-running writer (§IV-C).
func (b *Bus) Read(core int, line mem.LineAddr, off, size int, tx, force bool) ReadResult {
	st := b.entry(line)
	if st[core].Valid() && !force {
		// Pure local hit: no bus transaction. The caller should normally
		// not call Read in this case; tolerate it for robustness.
		return ReadResult{Source: SourceLocal}
	}
	b.maybeCompact()
	b.markTouched(core, line)
	b.Stats.ProbesShared++
	// Broadcast the probe to every other core. Snoopers run conflict
	// checks; an abort inside a snooper may Drop lines (including this
	// one), so supplier selection happens after all snoops complete.
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
	// Re-fetch the state entry: a snooper that aborted a transaction may
	// have Dropped lines reentrantly, and if every copy went Invalid the
	// table entry was released — the slice captured above would then be
	// an orphan and updates to it would be lost.
	st = b.entry(line)
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
	Source         Source
	HadRemoteCopy  bool // at least one remote valid copy was invalidated
	RemoteSnooped  bool // a probe was actually broadcast
	SilentUpgrade  bool // satisfied without any bus traffic
	InvalidatedOwn bool // (unused; reserved for holder-wins policies)
}

// Write performs a store's coherence transaction: broadcast an invalidating
// probe (GetX / upgrade), invalidate remote copies, and leave the requester
// in M.
//
// Transactional stores ALWAYS broadcast (§IV-D-2: "it sends out an
// invalidation message as done by a cache coherence protocol"), even from
// M/E — this is also what keeps conflict checks against speculative state
// retained in remotely *invalidated* lines sound. Non-transactional stores
// use the standard silent-upgrade fast path.
func (b *Bus) Write(core int, line mem.LineAddr, off, size int, tx bool) WriteResult {
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
	// Re-fetch after snoops for the same reentrant-Drop reason as in Read.
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

// Drop removes core's copy of line from the protocol (capacity eviction or
// transactional abort discarding a speculatively written line). M or O
// copies count as a writeback for the statistics — except when discard is
// true (aborted speculative data is destroyed, not written back).
func (b *Bus) Drop(core int, line mem.LineAddr, discard bool) {
	st, ok := b.liveEntry(line)
	if !ok {
		return
	}
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
	b.maybeRelease(line)
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
