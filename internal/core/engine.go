package core

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/oracle"
)

// Conflict is a holder-side conflict detection event, delivered to
// Hooks.OnConflict before the holder's transaction aborts. The Verdict is
// the oracle's byte-exact classification: Verdict.True distinguishes true
// data conflicts from false (false-sharing) conflicts, Verdict.Type is the
// WAR/RAW/WAW typing of Fig. 2.
type Conflict struct {
	Holder       int // core whose transaction loses (requester wins)
	Requester    int // core whose access triggered the probe
	Line         mem.LineAddr
	Off, Size    int
	Invalidating bool
	Verdict      oracle.Verdict
}

// Hooks are the engine's callbacks into the machine/statistics layer.
// Any hook may be nil.
type Hooks struct {
	// OnConflict fires when this engine detects a conflict against its
	// running transaction (and is about to abort it).
	OnConflict func(c Conflict)
	// OnAbort fires whenever the engine's transaction aborts, with the
	// reason.
	OnAbort func(core int, reason AbortReason)
	// OnSpecAccess fires for every speculative (transactional) access
	// piece, feeding the Fig. 5 intra-line access-pattern histograms.
	OnSpecAccess func(core int, line mem.LineAddr, off, size int, write bool)
}

// Stats counts per-core transactional events. The machine sums them.
type Stats struct {
	TxBegins             uint64
	TxCommits            uint64
	TxAborts             uint64
	AbortsBy             [NumAbortReasons]uint64 // indexed by AbortReason
	Conflicts            uint64                  // conflicts detected with this core as holder
	FalseConf            uint64                  // ... of which byte-exactly false
	ByType               [oracle.NumConflictTypes]uint64
	FalseBy              [oracle.NumConflictTypes]uint64
	DirtyMarks           uint64 // sub-blocks marked Dirty from piggyback masks
	DirtyRereq           uint64 // dirty-hit re-requests issued (§IV-C)
	RetainedChecksCaught uint64 // conflicts found on invalidated-but-retained lines
	Nacks                uint64 // accesses refused under holder-wins resolution
	SpeculatedWARs       uint64 // WAR conflicts speculated through (ModeWAROnly)
	SigAliasFalse        uint64 // signature conflicts on lines the holder never touched
	SpecLoads            uint64
	SpecStores           uint64
	CommittedLines       uint64 // speculative lines gang-cleared at commit
}

// lineState is the speculative state attached to one L1 line (or retained
// from an invalidated one). The per-granule Table I states are packed as
// two bitmasks — bit i of spec/wr is granule i's (SPEC, WR) pair — so the
// conflict checks, gang clears and any-state predicates on the snoop hot
// path are single bitwise operations instead of loops over a byte slice.
// Granule counts are capped at 64 by Config.Normalize.
//
// lineStates live in a dense slice indexed by the machine-wide line index
// (shared with the coherence bus). An entry is meaningful only when its
// epoch stamp equals the engine epoch AND present is set; listed tracks
// membership in the engine's active list (see Engine.lines).
type lineState struct {
	spec     uint64 // SPEC bit per granule (Table I)
	wr       uint64 // WR bit per granule
	epoch    uint32 // == Engine.epoch when this entry belongs to the current run
	retained bool   // line is coherence-invalid but state was kept (§IV-D-2)
	present  bool   // entry exists (the dense analogue of map membership)
	listed   bool   // entry's index is in Engine.active
}

func (ls *lineState) anySpec() bool      { return ls.spec != 0 }
func (ls *lineState) anySpecWrite() bool { return ls.spec&ls.wr != 0 }
func (ls *lineState) anyDirty() bool     { return ls.wr&^ls.spec != 0 }

// dirtyMask returns the bitmask of Dirty granules (WR without SPEC).
func (ls *lineState) dirtyMask() uint64 { return ls.wr &^ ls.spec }

// writtenMask returns the bitmask of SpecWrite granules (the piggy-back
// payload of §IV-D-1).
func (ls *lineState) writtenMask() uint64 { return ls.spec & ls.wr }

// get returns granule i's Table I state.
func (ls *lineState) get(i int) SubState {
	return SubState((ls.spec>>uint(i)&1)<<1 | ls.wr>>uint(i)&1)
}

// clearSpec gang-clears every speculative granule to Non-speculative
// (commit/abort); Dirty marks — WR bits without SPEC — survive, as the
// paper specifies.
func (ls *lineState) clearSpec() {
	ls.wr &^= ls.spec
	ls.spec = 0
}

// Engine models one core's ASF speculative machinery. It implements
// coherence.Snooper. It owns no data: values live in the simulated memory
// and the transaction runtime's write buffer (internal/sim); the engine
// decides conflicts, aborts, latencies and state.
type Engine struct {
	id   int
	cfg  Config
	bus  *coherence.Bus
	hier *cache.Hierarchy
	fp   *oracle.Footprint
	hook Hooks

	// Dense per-line speculative state over the bus's shared line index.
	// active holds the indices of every listed entry (present or lazily
	// unlisted), so commit/abort gang operations walk exactly the touched
	// lines instead of a map. Entries from earlier runs are dead by epoch;
	// Reset is therefore an integer bump plus truncating active.
	ix     *mem.LineIndexer
	lines  []lineState
	active []int32
	epoch  uint32

	// lastLine/lastLS cache the most recent lines lookup: accesses arrive
	// in same-line bursts (SplitByLine pieces, load-then-mark sequences),
	// so one cached entry removes most map probes from the hot path.
	lastLine mem.LineAddr
	lastLS   *lineState

	// splitBuf is the reusable scratch for SplitByLine in access().
	// Engines are single-threaded and never re-enter their own access
	// path (the bus broadcasts probes only to OTHER cores), so one
	// buffer per engine is safe.
	splitBuf []mem.Access

	// Prior-work comparator state (§II): speculated-WAR lines awaiting
	// commit-time value validation (ModeWAROnly, kept as a sorted slice —
	// see priorwork.go), and the read/write Bloom signatures
	// (ModeSignature).
	unsafe            []mem.LineAddr
	readSig, writeSig []uint64

	inTx         bool
	abortPending bool
	abortReason  AbortReason

	Stats Stats
}

// NewEngine builds the speculative engine for core id. cfg must already be
// Normalized by the machine.
func NewEngine(id int, cfg Config, bus *coherence.Bus, hier *cache.Hierarchy, hooks Hooks) *Engine {
	ix := bus.LineIndex()
	eng := &Engine{
		id:    id,
		cfg:   cfg,
		bus:   bus,
		hier:  hier,
		fp:    oracle.NewFootprintShared(cfg.Geom, ix),
		hook:  hooks,
		ix:    ix,
		epoch: 1,
	}
	if cfg.Mode == ModeSignature {
		eng.readSig = make([]uint64, cfg.SignatureBits/64)
		eng.writeSig = make([]uint64, cfg.SignatureBits/64)
	}
	return eng
}

// Reset returns the engine to its just-constructed state under a (possibly
// different) normalized cfg, reusing all storage. The caller must have
// reset the shared bus/indexer first; the engine's dense entries die via
// the epoch bump. An attempt still in flight (its run was stopped
// mid-transaction) is dropped with them.
func (e *Engine) Reset(cfg Config, hooks Hooks) {
	e.inTx = false
	e.cfg = cfg
	e.hook = hooks
	e.Stats = Stats{}
	if e.epoch == ^uint32(0) {
		// Epoch wraparound (after ~4 billion resets): stale stamps could
		// collide, so pay for one real clear.
		for i := range e.lines {
			e.lines[i] = lineState{}
		}
		e.epoch = 0
	}
	e.epoch++
	e.active = e.active[:0]
	e.lastLS = nil
	e.lastLine = 0
	e.unsafe = e.unsafe[:0]
	e.abortPending = false
	e.abortReason = ReasonNone
	if cfg.Mode == ModeSignature {
		words := cfg.SignatureBits / 64
		if len(e.readSig) != words {
			e.readSig = make([]uint64, words)
			e.writeSig = make([]uint64, words)
		} else {
			e.sigClear()
		}
	} else {
		e.readSig, e.writeSig = nil, nil
	}
	e.fp.Reset()
}

// ID returns the core id.
func (e *Engine) ID() int { return e.id }

// Footprint exposes the byte-exact oracle footprint of the current attempt
// (for the machine's Perfect-mode magic checks and for tests).
func (e *Engine) Footprint() *oracle.Footprint { return e.fp }

// InTx reports whether a transaction attempt is active (even if doomed).
func (e *Engine) InTx() bool { return e.inTx }

// AbortPending reports whether the running attempt has been aborted and
// the reason. The transaction runtime polls this after every operation.
func (e *Engine) AbortPending() (bool, AbortReason) { return e.abortPending, e.abortReason }

// peek returns the lineState for l (nil if absent) WITHOUT consulting or
// filling the one-entry cache. Snoop-filter compaction and eviction
// handling use it, mirroring the direct map reads of the old
// implementation, so cold-path probing leaves the hot path's cache alone.
func (e *Engine) peek(l mem.LineAddr) *lineState {
	idx, ok := e.ix.Lookup(l)
	if !ok || idx >= len(e.lines) {
		return nil
	}
	ls := &e.lines[idx]
	if ls.epoch != e.epoch || !ls.present {
		return nil
	}
	return ls
}

// lookup returns the lineState for l (nil if absent), consulting the
// one-entry cache first.
func (e *Engine) lookup(l mem.LineAddr) *lineState {
	if e.lastLS != nil && e.lastLine == l {
		return e.lastLS
	}
	ls := e.peek(l)
	if ls != nil {
		e.lastLine, e.lastLS = l, ls
	}
	return ls
}

// state returns the lineState for l, creating it if create is set.
// Creation may grow the dense slice, which invalidates every outstanding
// *lineState — including the one-entry cache, which is cleared by ensure.
func (e *Engine) state(l mem.LineAddr, create bool) *lineState {
	ls := e.lookup(l)
	if ls == nil && create {
		idx := e.ix.Index(l)
		e.ensure(idx)
		ls = &e.lines[idx]
		if ls.epoch != e.epoch {
			*ls = lineState{epoch: e.epoch}
		} else {
			ls.spec, ls.wr, ls.retained = 0, 0, false
		}
		ls.present = true
		if !ls.listed {
			ls.listed = true
			e.active = append(e.active, int32(idx))
		}
		e.lastLine, e.lastLS = l, ls
	}
	return ls
}

// ensure grows the dense slice to cover line index idx, dropping the
// lookup cache if the backing array may have moved.
func (e *Engine) ensure(idx int) {
	if idx < len(e.lines) {
		return
	}
	e.lines = append(e.lines, make([]lineState, idx+1-len(e.lines))...)
	e.lastLS = nil
}

// forget drops line l's state, keeping the lookup cache coherent. The
// entry's index stays in active until the next commit/abort sweep prunes
// it (listed remains set so it is not appended twice).
func (e *Engine) forget(l mem.LineAddr) {
	if ls := e.peek(l); ls != nil {
		ls.present = false
	}
	if e.lastLine == l {
		e.lastLS = nil
	}
}

// SubStates returns a copy of the per-granule states for line l (all
// NonSpec when the engine holds no state). For tests and inspection.
func (e *Engine) SubStates(l mem.LineAddr) []SubState {
	out := make([]SubState, e.cfg.Granules())
	if ls := e.lookup(l); ls != nil {
		for i := range out {
			out[i] = ls.get(i)
		}
	}
	return out
}

// Retained reports whether line l's speculative state is being kept in a
// coherence-invalidated line.
func (e *Engine) Retained(l mem.LineAddr) bool {
	ls := e.lookup(l)
	return ls != nil && ls.retained
}

// HoldsLineState implements coherence.StateHolder for the snoop filter's
// epoch compaction: it reports whether this engine keeps ANY per-line
// state for l — speculative bits, dirty marks or retained-invalid state.
// When it returns false (and the core also has no coherence copy), a
// probe of l is a complete no-op in every mode except signatures, which
// never use the filter: no conflict can fire, no piggyback mask can be
// replied, and the invalidation housekeeping finds nothing to do.
// Deliberately bypasses the lookup cache so compaction leaves the hot
// path's cache state untouched.
func (e *Engine) HoldsLineState(l mem.LineAddr) bool {
	return e.peek(l) != nil
}

// ---------------------------------------------------------------------------
// Transaction lifecycle
// ---------------------------------------------------------------------------

// BeginTx starts a transaction attempt. Speculative state from the previous
// attempt must already have been discarded (CommitTx or the abort path).
func (e *Engine) BeginTx() {
	if e.inTx {
		panic(fmt.Sprintf("core: core %d BeginTx while in tx", e.id))
	}
	e.inTx = true
	e.abortPending = false
	e.abortReason = ReasonNone
	e.fp.Reset()
	e.unsafe = e.unsafe[:0]
	e.Stats.TxBegins++
}

// CommitTx attempts to commit. It fails (returning false and the reason)
// if the attempt was aborted; the caller then retries. On success all
// speculative bits are gang-cleared; speculatively written lines simply
// become ordinary modified lines (§IV-D-3). Dirty bits in this core (set
// by OTHER cores' transactions) are left untouched, as the paper specifies.
func (e *Engine) CommitTx() (ok bool, reason AbortReason) {
	if !e.inTx {
		panic(fmt.Sprintf("core: core %d CommitTx outside tx", e.id))
	}
	if e.abortPending {
		e.inTx = false
		e.abortPending = false
		return false, e.abortReason
	}
	w := 0
	for _, idx := range e.active {
		ls := &e.lines[idx]
		if !ls.present {
			ls.listed = false // forgotten earlier; prune from active now
			continue
		}
		if ls.anySpec() {
			ls.clearSpec()
			e.Stats.CommittedLines++
		}
		if ls.retained || ls.wr == 0 {
			// Retained-invalid entries carry only speculative state;
			// once cleared there is nothing left to keep. Entries with
			// no dirty bits are garbage too.
			ls.present, ls.listed = false, false
			continue
		}
		e.active[w] = idx
		w++
	}
	e.active = e.active[:w]
	e.lastLS = nil
	if e.cfg.Mode == ModeSignature {
		e.sigClear()
	}
	e.unsafe = e.unsafe[:0]
	e.inTx = false
	e.Stats.TxCommits++
	return true, ReasonNone
}

// Abort aborts the running attempt for reason (user abort, or the runtime's
// own decisions). The discard semantics are identical to a conflict abort.
func (e *Engine) Abort(reason AbortReason) {
	if !e.inTx {
		panic(fmt.Sprintf("core: core %d Abort outside tx", e.id))
	}
	e.abortSelf(reason)
}

// ForceAbort aborts the running attempt from outside the transaction's own
// thread (the serial-fallback lock acquisition quashing all in-flight
// transactions). It is a no-op when no live attempt exists.
func (e *Engine) ForceAbort(reason AbortReason) {
	if e.inTx && !e.abortPending {
		e.abortSelf(reason)
	}
}

// abortSelf discards all speculative state: speculatively WRITTEN lines are
// destroyed (their only up-to-date copy was the uncommitted L1 data), i.e.
// dropped from the hierarchy and the protocol without writeback;
// speculatively read lines keep their data and merely lose their bits.
// Dirty bits (owned by other cores' activity) survive. Idempotent.
func (e *Engine) abortSelf(reason AbortReason) {
	if e.abortPending {
		return
	}
	e.abortPending = true
	e.abortReason = reason
	e.Stats.TxAborts++
	if int(reason) < len(e.Stats.AbortsBy) {
		e.Stats.AbortsBy[reason]++
	}
	w := 0
	for _, idx := range e.active {
		ls := &e.lines[idx]
		if !ls.present {
			ls.listed = false
			continue
		}
		if ls.anySpecWrite() {
			l := e.ix.Line(int(idx))
			e.hier.Invalidate(l)
			e.bus.Drop(e.id, l, true /* discard, no writeback */)
		}
		ls.clearSpec()
		if ls.retained || !ls.anyDirty() {
			ls.present, ls.listed = false, false
			continue
		}
		e.active[w] = idx
		w++
	}
	e.active = e.active[:w]
	e.lastLS = nil
	if e.cfg.Mode == ModeSignature {
		e.sigClear()
	}
	e.unsafe = e.unsafe[:0]
	if e.hook.OnAbort != nil {
		e.hook.OnAbort(e.id, reason)
	}
}

// ---------------------------------------------------------------------------
// Memory accesses
// ---------------------------------------------------------------------------

// AccessResult reports the cost of an access for the machine's clock.
type AccessResult struct {
	Latency int64
	// CapacityAbort is set when the access could not be performed because
	// filling it would have evicted a speculative line (the transaction
	// has been aborted; the access did not architecturally happen).
	CapacityAbort bool
	// Nacked is set under holder-wins resolution when a remote holder
	// refused the access: no state changed; the caller should retry after
	// a delay (and eventually give up by aborting itself).
	Nacked bool
}

// Load services a load of [a, a+size). tx marks it speculative. The
// returned latency is the load-to-use cost; coherence side effects
// (probes, remote aborts) have already happened on return.
func (e *Engine) Load(a mem.Addr, size int, tx bool) AccessResult {
	return e.access(a, size, tx, false)
}

// Store services a store of [a, a+size).
func (e *Engine) Store(a mem.Addr, size int, tx bool) AccessResult {
	return e.access(a, size, tx, true)
}

func (e *Engine) access(a mem.Addr, size int, tx, write bool) AccessResult {
	if tx && !e.inTx {
		panic(fmt.Sprintf("core: core %d speculative access outside tx", e.id))
	}
	if tx && e.abortPending {
		// The transaction runtime checks AbortPending before every
		// operation, so a speculative access on a dead attempt is a
		// caller bug; allowing it would plant zombie speculative state
		// that outlives the attempt.
		panic(fmt.Sprintf("core: core %d speculative access on aborted attempt", e.id))
	}
	e.splitBuf = e.cfg.Geom.SplitByLineInto(e.splitBuf, a, size)
	pieces := e.splitBuf
	var res AccessResult
	if tx && e.cfg.Resolution == HolderWins {
		// NACK pre-check: if any live remote transaction would conflict,
		// refuse the whole access before any coherence transition.
		for _, p := range pieces {
			if e.bus.WouldConflict(e.id, p.Line, p.Off, p.Size, write) {
				e.Stats.Nacks++
				res.Nacked = true
				res.Latency = e.hier.Config().BusLatency
				return res
			}
		}
	}
	for _, p := range pieces {
		var lat int64
		var capAbort bool
		if write {
			lat, capAbort = e.storePiece(p, tx)
		} else {
			lat, capAbort = e.loadPiece(p, tx)
		}
		res.Latency += lat
		if capAbort {
			res.CapacityAbort = true
			break
		}
	}
	return res
}

// revalidate clears the retained-invalid marker once the core re-acquires
// a valid copy of the line: from here on the speculative state lives in a
// valid line again, and commit-time cleanup must not treat it as the
// leftover of an invalidation. (Catching this omission is what the
// reference-model property test is for: a stale retained flag made commit
// discard legitimate Dirty marks, silently disabling the §IV-C re-request
// for the next transaction.)
func (e *Engine) revalidate(l mem.LineAddr) {
	if ls := e.lookup(l); ls != nil {
		ls.retained = false
	}
}

// fill installs line l into the private hierarchy after a bus transaction.
// If the L1 fill evicts a line carrying live speculative state, the running
// transaction takes a capacity abort (ASF is best-effort and cannot spill
// speculative lines); the fill itself still completes so the hierarchy and
// the coherence state stay consistent. Returns false iff it aborted.
func (e *Engine) fill(l mem.LineAddr) bool {
	_, ev := e.hier.Access(l)
	return !e.handleEvictions(ev)
}

// handleEvictions processes the fallout of a hierarchy fill: an L1 victim
// holding speculative state forces a capacity abort (abortSelf also cleans
// the state map); victims expelled from the whole stack leave the coherence
// protocol. Dirty-only victims just lose their marks with the data.
// It reports whether a capacity abort occurred.
func (e *Engine) handleEvictions(ev cache.EvictionSet) (aborted bool) {
	for _, v := range ev.FromL1 {
		vs := e.peek(v)
		if vs == nil || vs.retained {
			continue
		}
		if vs.anySpec() && e.inTx && !e.abortPending {
			e.abortSelf(ReasonCapacity)
			aborted = true
		} else if !vs.anySpec() {
			e.forget(v)
		}
	}
	for _, v := range ev.FromL3 {
		e.bus.Drop(e.id, v, false)
		if vs := e.peek(v); vs != nil && !vs.retained && !vs.anySpec() {
			e.forget(v)
		}
	}
	return aborted
}

// loadPiece services one line-confined load piece.
func (e *Engine) loadPiece(p mem.Access, tx bool) (lat int64, capAbort bool) {
	st := e.bus.State(e.id, p.Line)
	hc := e.hier.Config()
	ls := e.state(p.Line, false)

	if st.Valid() {
		// Local hit path. Check the dirty protocol first: a hit on a
		// Dirty sub-block must be treated as a local miss and re-request
		// the line with a non-invalidating probe (§IV-C), which aborts a
		// still-running remote writer.
		var spanDirty uint64
		if e.cfg.DirtyProtocol && ls != nil {
			first, last := e.cfg.Geom.SubBlockSpan(p.Off, p.Size, e.cfg.SubBlocks)
			spanDirty = ls.dirtyMask() & mem.SpanMask(first, last)
		}
		if spanDirty != 0 {
			e.Stats.DirtyRereq++
			rr := e.bus.Read(e.id, p.Line, p.Off, p.Size, tx, true /* force */)
			lat = hc.BusLatency
			if rr.Source == coherence.SourceMemory {
				lat = hc.MemLatency
			}
			// The re-request cleared the staleness: the spanned dirty
			// sub-blocks become S-RD for transactional loads (§IV-D-1)
			// or Non-speculative otherwise; fresh piggyback marks apply
			// below as usual.
			ls.wr &^= spanDirty
			if tx {
				ls.spec |= spanDirty
			}
			e.applyPiggyback(p.Line, rr.WrittenMask)
			e.hier.L1().Touch(p.Line)
		} else {
			lv, ev := e.hier.Access(p.Line)
			lat = e.hier.Latency(lv)
			// A promotion from L2/L3 into L1 can evict an L1 way; the
			// victim may carry speculative state.
			if e.handleEvictions(ev) {
				return lat, true
			}
		}
	} else {
		// Miss in the private hierarchy: bus transaction.
		rr := e.bus.Read(e.id, p.Line, p.Off, p.Size, tx, false)
		switch rr.Source {
		case coherence.SourceRemote:
			lat = hc.BusLatency
		default:
			lat = hc.MemLatency
		}
		if rr.WrittenMask != 0 {
			lat += e.cfg.PiggybackPenalty
		}
		if !e.fill(p.Line) {
			return lat, true
		}
		e.revalidate(p.Line)
		e.applyPiggyback(p.Line, rr.WrittenMask)
	}

	if tx {
		e.markSpec(p, false)
		e.Stats.SpecLoads++
		if e.hook.OnSpecAccess != nil {
			e.hook.OnSpecAccess(e.id, p.Line, p.Off, p.Size, false)
		}
	}
	return lat, false
}

// storePiece services one line-confined store piece.
func (e *Engine) storePiece(p mem.Access, tx bool) (lat int64, capAbort bool) {
	st := e.bus.State(e.id, p.Line)
	hc := e.hier.Config()

	hadLocal := st.Valid()
	wr := e.bus.Write(e.id, p.Line, p.Off, p.Size, tx)
	switch {
	case hadLocal:
		// Upgrade or silent store: data already local. Promote in the
		// hierarchy for LRU/latency purposes.
		lv, ev := e.hier.Access(p.Line)
		lat = e.hier.Latency(lv)
		if e.handleEvictions(ev) {
			return lat, true
		}
	case wr.Source == coherence.SourceRemote:
		lat = hc.BusLatency
		if !e.fill(p.Line) {
			return lat, true
		}
		e.revalidate(p.Line)
	default:
		lat = hc.MemLatency
		if !e.fill(p.Line) {
			return lat, true
		}
		e.revalidate(p.Line)
	}

	// A non-transactional store overwrites any Dirty marks it covers: the
	// local copy of those bytes is now our own committed data.
	if !tx && e.cfg.Mode == ModeSubBlock {
		if ls := e.lookup(p.Line); ls != nil {
			first, last := e.cfg.Geom.SubBlockSpan(p.Off, p.Size, e.cfg.SubBlocks)
			ls.wr &^= ls.dirtyMask() & mem.SpanMask(first, last)
		}
	}

	if tx {
		e.markSpec(p, true)
		e.Stats.SpecStores++
		if e.hook.OnSpecAccess != nil {
			e.hook.OnSpecAccess(e.id, p.Line, p.Off, p.Size, true)
		}
	}
	return lat, false
}

// markSpec sets the speculative bits for the access and records it in the
// byte-exact footprint.
func (e *Engine) markSpec(p mem.Access, write bool) {
	if e.cfg.Mode == ModeSignature {
		e.sigMark(p.Line, write)
	}
	ls := e.state(p.Line, true)
	first, last := e.cfg.Geom.SubBlockSpan(p.Off, p.Size, e.cfg.SubBlocks)
	m := mem.SpanMask(first, last)
	if write {
		ls.spec |= m
		ls.wr |= m
		e.fp.RecordWrite(p.Line, p.Off, p.Size)
	} else {
		// A read never downgrades S-WR: spanned granules become S-RD
		// except where the WR bit belongs to an S-WR granule.
		sw := ls.writtenMask() & m
		ls.wr = ls.wr&^m | sw
		ls.spec |= m
		e.fp.RecordRead(p.Line, p.Off, p.Size)
	}
}

// applyPiggyback marks the sub-blocks named in a data reply's written-mask
// as Dirty (§IV-D-1). The mask never overlaps our own speculative
// sub-blocks: if the remote writer's footprint overlapped ours, one of the
// two transactions would already have aborted.
func (e *Engine) applyPiggyback(l mem.LineAddr, mask uint64) {
	if mask == 0 || e.cfg.Mode != ModeSubBlock || !e.cfg.DirtyProtocol {
		return
	}
	ls := e.state(l, true)
	if mask&ls.spec != 0 {
		panic(fmt.Sprintf("core: core %d piggyback mask %#x overlaps own speculative sub-blocks of line %#x",
			e.id, mask, uint64(l)))
	}
	fresh := mask &^ ls.wr // already-Dirty granules are not re-marked
	ls.wr |= fresh
	e.Stats.DirtyMarks += uint64(bits.OnesCount64(fresh))
}

// ---------------------------------------------------------------------------
// Snooping (conflict detection)
// ---------------------------------------------------------------------------

// Snoop implements coherence.Snooper: every probe from another core is
// checked against this core's speculative state, in whatever granularity
// the mode prescribes. On conflict the local transaction aborts (requester
// wins) after the event is classified by the oracle. For surviving
// non-invalidating probes the reply carries the written-sub-block piggyback
// mask.
func (e *Engine) Snoop(p coherence.Probe) coherence.Reply {
	ls := e.lookup(p.Line)
	stateValid := e.bus.State(e.id, p.Line).Valid()

	conflict := false
	speculatedWAR := false
	if e.inTx && !e.abortPending {
		switch e.cfg.Mode {
		case ModePerfect:
			// Detection happens via the machine's magic checks only.
		case ModeSignature:
			// Signatures are independent of cache residency: test them
			// regardless of whether any per-line state exists.
			conflict = e.sigTest(p.Line, p.Invalidating)
			if conflict && !e.fp.HasLine(p.Line) {
				e.Stats.SigAliasFalse++
			}
		case ModeWAROnly:
			if ls != nil {
				switch {
				case !p.Invalidating:
					conflict = ls.get(0) == SpecWrite // RAW cannot be decoupled
				case ls.get(0) == SpecWrite:
					conflict = true // invalidation destroys uncommitted data
				case ls.get(0) == SpecRead:
					// The prior-work trick: speculate there is no true
					// conflict, remember the line, validate by value at
					// commit (§II).
					speculatedWAR = true
				}
			}
		default:
			if ls != nil {
				if ls.retained && !e.cfg.RetainInvalidState {
					// Ablation: retained state exists structurally but is
					// not consulted.
				} else {
					conflict = e.checkConflict(ls, p)
					if conflict && ls.retained {
						e.Stats.RetainedChecksCaught++
					}
				}
			}
		}
	}
	if speculatedWAR {
		e.markUnsafe(p.Line)
		e.Stats.SpeculatedWARs++
	}

	if conflict {
		v := e.fp.Judge(p.Line, p.Off, p.Size, p.Invalidating)
		e.Stats.Conflicts++
		e.Stats.ByType[v.Type]++
		if !v.True {
			e.Stats.FalseConf++
			e.Stats.FalseBy[v.Type]++
		}
		if e.hook.OnConflict != nil {
			e.hook.OnConflict(Conflict{
				Holder: e.id, Requester: p.From,
				Line: p.Line, Off: p.Off, Size: p.Size,
				Invalidating: p.Invalidating, Verdict: v,
			})
		}
		e.abortSelf(ReasonConflict)
		// After the abort all speculative state is gone; fall through so
		// invalidation housekeeping still runs for what remains.
		ls = e.lookup(p.Line)
	}

	var reply coherence.Reply
	if !p.Invalidating {
		if ls != nil && e.cfg.Mode == ModeSubBlock {
			reply.WrittenMask = ls.writtenMask()
		}
		return reply
	}

	// Invalidating probe: we lose our copy. The bus flips the coherence
	// state after this callback; the engine evicts the data from its
	// private hierarchy and decides whether to retain speculative state
	// inside the (now invalid) line.
	if stateValid {
		e.hier.Invalidate(p.Line)
	}
	if ls != nil {
		switch {
		case ls.anySpec() && e.cfg.RetainInvalidState:
			// False WAR invalidation: keep the speculative information
			// inside the invalidated line so later conflicts are caught
			// (§IV-D-2). Dirty marks die with the data.
			ls.wr &= ls.spec
			ls.retained = true
		default:
			// No live speculative state worth retaining: dirty marks are
			// meaningless without the cached data.
			e.forget(p.Line)
		}
	}
	return reply
}

// WouldConflict implements coherence.ConflictChecker: the side-effect-free
// version of Snoop's conflict determination, used by the holder-wins
// pre-check. Only baseline and sub-block modes support it (Normalize
// enforces this).
func (e *Engine) WouldConflict(p coherence.Probe) bool {
	if !e.inTx || e.abortPending {
		return false
	}
	ls := e.lookup(p.Line)
	if ls == nil {
		return false
	}
	if ls.retained && !e.cfg.RetainInvalidState {
		return false
	}
	return e.checkConflict(ls, p)
}

// checkConflict applies the mode's conflict matrix to a probe, entirely in
// bit-parallel mask operations.
func (e *Engine) checkConflict(ls *lineState, p coherence.Probe) bool {
	switch e.cfg.Mode {
	case ModeBaseline:
		// sub[0].ConflictsWith: an invalidating probe conflicts with any
		// speculative state, a non-invalidating one only with S-WR.
		if ls.spec&1 == 0 {
			return false
		}
		return p.Invalidating || ls.wr&1 != 0
	case ModeSubBlock:
		first, last := e.cfg.Geom.SubBlockSpan(p.Off, p.Size, e.cfg.SubBlocks)
		m := mem.SpanMask(first, last)
		if p.Invalidating {
			// Per-sub-block overlap with any speculative granule, plus
			// §IV-D-2: an invalidating probe against a line with ANY
			// speculatively written sub-block aborts the holder even
			// without overlap, because invalidation would destroy the
			// uncommitted data. (WAW false conflicts are ~0 % of the
			// total, so the paper accepts this.)
			return ls.spec&m != 0 || ls.anySpecWrite()
		}
		return ls.writtenMask()&m != 0
	}
	return false
}

// MagicProbe is the Perfect-mode holder-side check: the machine calls it on
// every OTHER core for each speculative access. It aborts this core's
// transaction iff the access truly (byte-exactly) conflicts with it, and
// reports what it did.
func (e *Engine) MagicProbe(from int, line mem.LineAddr, off, size int, write bool) bool {
	if !e.inTx || e.abortPending {
		return false
	}
	v := e.fp.Judge(line, off, size, write)
	if !v.True {
		return false
	}
	e.Stats.Conflicts++
	e.Stats.ByType[v.Type]++
	if e.hook.OnConflict != nil {
		e.hook.OnConflict(Conflict{
			Holder: e.id, Requester: from,
			Line: line, Off: off, Size: size,
			Invalidating: write, Verdict: v,
		})
	}
	e.abortSelf(ReasonConflict)
	return true
}

// SpecLineCount returns the number of lines currently holding speculative
// state (capacity diagnostics and tests).
func (e *Engine) SpecLineCount() int {
	n := 0
	for _, idx := range e.active {
		if ls := &e.lines[idx]; ls.present && ls.anySpec() {
			n++
		}
	}
	return n
}
