package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/oracle"
)

// rig assembles n engines on one bus with real (Table II) hierarchies and
// records every conflict event.
type testRig struct {
	bus       *coherence.Bus
	engines   []*Engine
	conflicts []Conflict
}

func newRig(t *testing.T, n int, cfg Config) *testRig {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	r := &testRig{bus: coherence.NewBus(n, mem.DefaultGeometry)}
	hooks := Hooks{OnConflict: func(c Conflict) { r.conflicts = append(r.conflicts, c) }}
	for i := 0; i < n; i++ {
		h := cache.NewHierarchy(cache.DefaultHierarchy())
		e := NewEngine(i, cfg, r.bus, h, hooks)
		r.engines = append(r.engines, e)
		r.bus.Register(i, e)
	}
	return r
}

func subCfg(n int) Config {
	return Config{Mode: ModeSubBlock, SubBlocks: n, RetainInvalidState: true, DirtyProtocol: true}
}

const lineA = mem.Addr(0x1000) // byte 0 of its line

func aborted(e *Engine) (bool, AbortReason) { return e.AbortPending() }

// --- Baseline conflict matrix ------------------------------------------------

func TestBaselineWriteProbeVsSpecRead(t *testing.T) {
	r := newRig(t, 2, Config{Mode: ModeBaseline})
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Load(lineA, 8, true)
	q.Store(lineA+32, 8, false) // different bytes, same line
	if ab, reason := aborted(h); !ab || reason != ReasonConflict {
		t.Fatal("baseline: invalidating probe vs SR did not abort")
	}
	if len(r.conflicts) != 1 {
		t.Fatalf("%d conflicts recorded", len(r.conflicts))
	}
	c := r.conflicts[0]
	if c.Verdict.True || c.Verdict.Type != oracle.WAR {
		t.Fatalf("expected false WAR, got %+v", c.Verdict)
	}
}

func TestBaselineWriteProbeVsSpecWrite(t *testing.T) {
	r := newRig(t, 2, Config{Mode: ModeBaseline})
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Store(lineA, 8, true)
	q.Store(lineA+32, 8, false)
	if ab, _ := aborted(h); !ab {
		t.Fatal("baseline: invalidating probe vs SW did not abort")
	}
	if r.conflicts[0].Verdict.Type != oracle.WAW || r.conflicts[0].Verdict.True {
		t.Fatalf("expected false WAW, got %+v", r.conflicts[0].Verdict)
	}
}

func TestBaselineReadProbeVsSpecWrite(t *testing.T) {
	r := newRig(t, 2, Config{Mode: ModeBaseline})
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Store(lineA, 8, true)
	q.Load(lineA+32, 8, false)
	if ab, _ := aborted(h); !ab {
		t.Fatal("baseline: read probe vs SW did not abort")
	}
	if r.conflicts[0].Verdict.Type != oracle.RAW {
		t.Fatalf("expected RAW, got %v", r.conflicts[0].Verdict.Type)
	}
}

func TestBaselineReadProbeVsSpecReadNoConflict(t *testing.T) {
	r := newRig(t, 2, Config{Mode: ModeBaseline})
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Load(lineA, 8, true)
	q.Load(lineA, 8, false) // same bytes even — reads never conflict
	if ab, _ := aborted(h); ab {
		t.Fatal("read-read aborted")
	}
	if len(r.conflicts) != 0 {
		t.Fatal("read-read recorded a conflict")
	}
}

func TestBaselineTrueConflictClassified(t *testing.T) {
	r := newRig(t, 2, Config{Mode: ModeBaseline})
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Load(lineA, 8, true)
	q.Store(lineA, 8, false) // same bytes: TRUE WAR
	if !r.conflicts[0].Verdict.True {
		t.Fatal("overlapping-byte conflict judged false")
	}
}

// --- Sub-block behaviour -----------------------------------------------------

func TestSubBlockEliminatesFalseWAR(t *testing.T) {
	r := newRig(t, 2, subCfg(4))
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Load(lineA, 8, true)      // sub-block 0
	q.Store(lineA+32, 8, false) // sub-block 2: no overlap
	if ab, _ := aborted(h); ab {
		t.Fatal("sub-blocking failed to eliminate a false WAR")
	}
	if len(r.conflicts) != 0 {
		t.Fatal("conflict recorded")
	}
	// The holder's line was invalidated but its speculative state must be
	// retained (§IV-D-2).
	if !h.Retained(mem.DefaultGeometry.Line(lineA)) {
		t.Fatal("speculative state not retained in invalidated line")
	}
}

func TestSubBlockDetectsSameSubBlockWAR(t *testing.T) {
	r := newRig(t, 2, subCfg(4))
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Load(lineA, 8, true)     // sub-block 0
	q.Store(lineA+8, 8, false) // also sub-block 0, disjoint bytes
	if ab, _ := aborted(h); !ab {
		t.Fatal("same-sub-block WAR missed")
	}
	if r.conflicts[0].Verdict.True {
		t.Fatal("disjoint bytes judged true")
	}
}

func TestSubBlockWAWLineRule(t *testing.T) {
	// §IV-D-2: an invalidating probe against a line with ANY speculatively
	// written sub-block aborts the holder, even with no overlap, because
	// invalidation would destroy the uncommitted data.
	r := newRig(t, 2, subCfg(4))
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Store(lineA, 8, true)     // S-WR in sub-block 0
	q.Store(lineA+32, 8, false) // sub-block 2
	if ab, _ := aborted(h); !ab {
		t.Fatal("WAW line rule not enforced")
	}
	v := r.conflicts[0].Verdict
	if v.True || v.Type != oracle.WAW {
		t.Fatalf("expected false WAW, got %+v", v)
	}
}

func TestSubBlockReadProbeDifferentSubBlockNoConflict(t *testing.T) {
	r := newRig(t, 2, subCfg(4))
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Store(lineA, 8, true)
	q.Load(lineA+32, 8, false)
	if ab, _ := aborted(h); ab {
		t.Fatal("read of a different sub-block aborted the writer")
	}
}

func TestPiggybackMarksDirty(t *testing.T) {
	r := newRig(t, 2, subCfg(4))
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Store(lineA, 8, true) // S-WR sub-block 0
	q.BeginTx()
	q.Load(lineA+32, 8, true) // reads sub-block 2; reply piggybacks mask {0}
	if ab, _ := aborted(h); ab {
		t.Fatal("false RAW not eliminated")
	}
	line := mem.DefaultGeometry.Line(lineA)
	qs := q.SubStates(line)
	if qs[0] != Dirty {
		t.Fatalf("requester sub-block 0 state %v, want Dirty", qs[0])
	}
	if qs[2] != SpecRead {
		t.Fatalf("requester sub-block 2 state %v, want S-RD", qs[2])
	}
	if q.Stats.DirtyMarks != 1 {
		t.Fatalf("DirtyMarks = %d", q.Stats.DirtyMarks)
	}
}

// TestFig7LoadAccess walks the paper's Fig. 7 example end to end: a
// transactional load that hits a remote core's line with a speculatively
// written sub-block forwards the data, piggybacks the written mask, and the
// requester marks that sub-block Dirty while marking its own as S-RD.
func TestFig7LoadAccess(t *testing.T) {
	r := newRig(t, 2, subCfg(4))
	t0, t1 := r.engines[0], r.engines[1]
	line := mem.DefaultGeometry.Line(lineA)

	// T0 speculatively writes sub-block 1.
	t0.BeginTx()
	t0.Store(lineA+16, 8, true)
	if t0.SubStates(line)[1] != SpecWrite {
		t.Fatal("setup: T0 sub-block 1 not S-WR")
	}
	// T1 transactionally loads sub-block 3: no true conflict.
	t1.BeginTx()
	t1.Load(lineA+48, 8, true)
	if ab, _ := aborted(t0); ab {
		t.Fatal("Fig 7: remote writer aborted on non-conflicting load")
	}
	// Coherence: T0 M->O, T1 S.
	if st := r.bus.State(0, line); st != coherence.Owned {
		t.Fatalf("T0 state %v, want O", st)
	}
	if st := r.bus.State(1, line); st != coherence.Shared {
		t.Fatalf("T1 state %v, want S", st)
	}
	// T1's sub-block states: Dirty where T0 wrote, S-RD where T1 read.
	s := t1.SubStates(line)
	if s[1] != Dirty || s[3] != SpecRead || s[0] != NonSpec || s[2] != NonSpec {
		t.Fatalf("Fig 7 requester states = %v", s)
	}
}

// TestFig6aDirtyHitAbortsWriter reproduces Fig. 6(a): after receiving a
// line whose sub-block 1 was written by the still-running T0, T1 later
// reads that sub-block. The dirty state forces a re-request whose probe
// finally detects the (true, RAW) conflict and aborts T0 — the atomicity
// hole the dirty state exists to close.
func TestFig6aDirtyHitAbortsWriter(t *testing.T) {
	r := newRig(t, 2, subCfg(4))
	t0, t1 := r.engines[0], r.engines[1]

	t0.BeginTx()
	t0.Store(lineA+16, 8, true) // writes "A" in sub-block 1
	t1.BeginTx()
	t1.Load(lineA+48, 8, true) // reads "B": line now cached at T1 with Dirty on 1
	if ab, _ := aborted(t0); ab {
		t.Fatal("premature abort")
	}

	// T1 now reads A — a local cache HIT, which without the dirty state
	// would produce no coherence message and break atomicity.
	t1.Load(lineA+16, 8, true)
	if ab, reason := aborted(t0); !ab || reason != ReasonConflict {
		t.Fatal("Fig 6(a): dirty-hit re-request did not abort the writer")
	}
	if t1.Stats.DirtyRereq != 1 {
		t.Fatalf("DirtyRereq = %d", t1.Stats.DirtyRereq)
	}
	// T1 itself must survive and now hold S-RD on sub-block 1.
	if ab, _ := aborted(t1); ab {
		t.Fatal("requester aborted")
	}
	if s := t1.SubStates(mem.DefaultGeometry.Line(lineA)); s[1] != SpecRead {
		t.Fatalf("after re-request sub-block 1 = %v, want S-RD", s[1])
	}
	if v := r.conflicts[0].Verdict; !v.True || v.Type != oracle.RAW {
		t.Fatalf("expected true RAW, got %+v", v)
	}
}

// TestFig6bAbortedWriterDirtyRefetch reproduces Fig. 6(b): T0 aborts after
// forwarding its line; T1's later read of the written sub-block must not
// use the stale copy — the dirty state forces a refetch that now completes
// from memory without any conflict.
func TestFig6bAbortedWriterDirtyRefetch(t *testing.T) {
	r := newRig(t, 2, subCfg(4))
	t0, t1 := r.engines[0], r.engines[1]

	t0.BeginTx()
	t0.Store(lineA+16, 8, true)
	t1.BeginTx()
	t1.Load(lineA+48, 8, true) // dirty mark on sub-block 1
	t0.Abort(ReasonUser)       // T0 aborts first; its speculative line is destroyed

	before := len(r.conflicts)
	t1.Load(lineA+16, 8, true) // dirty hit -> refetch
	if len(r.conflicts) != before {
		t.Fatal("refetch after writer abort raised a conflict")
	}
	if ab, _ := aborted(t1); ab {
		t.Fatal("T1 aborted")
	}
	if t1.Stats.DirtyRereq != 1 {
		t.Fatalf("DirtyRereq = %d", t1.Stats.DirtyRereq)
	}
}

// TestRetainedInvalidStateCatchesLaterConflict: the §IV-D-2 decoupling. A
// false WAR invalidates the holder's line but the speculative read state is
// retained; a LATER write that does overlap must still be detected.
func TestRetainedInvalidStateCatchesLaterConflict(t *testing.T) {
	r := newRig(t, 2, subCfg(4))
	h, q := r.engines[0], r.engines[1]
	line := mem.DefaultGeometry.Line(lineA)

	h.BeginTx()
	h.Load(lineA+16, 8, true) // S-RD sub-block 1
	q.BeginTx()
	q.Store(lineA+48, 8, true) // false WAR: invalidates h's line, state retained
	if ab, _ := aborted(h); ab {
		t.Fatal("false WAR aborted despite sub-blocking")
	}
	if !h.Retained(line) {
		t.Fatal("state not retained")
	}

	// NOW a true overlap with the retained S-RD. The writer is a
	// transaction, so its store broadcasts even though it already holds
	// the line in M (a non-transactional silent store could never be
	// checked — no message exists to check against).
	q.Store(lineA+16, 8, true)
	if ab, _ := aborted(h); !ab {
		t.Fatal("conflict on retained-invalid line missed")
	}
	if h.Stats.RetainedChecksCaught != 1 {
		t.Fatalf("RetainedChecksCaught = %d", h.Stats.RetainedChecksCaught)
	}
}

// TestRetainAblationMissesWAR shows what the ablation knob does: without
// retained state the same later conflict goes undetected.
func TestRetainAblationMissesWAR(t *testing.T) {
	cfg := subCfg(4)
	cfg.RetainInvalidState = false
	r := newRig(t, 2, cfg)
	h, q := r.engines[0], r.engines[1]

	h.BeginTx()
	h.Load(lineA+16, 8, true)
	q.Store(lineA+48, 8, false) // invalidation drops the state entirely
	q.Store(lineA+16, 8, false) // overlapping write: nothing left to check
	if ab, _ := aborted(h); ab {
		t.Fatal("ablation unexpectedly detected the conflict")
	}
	if len(r.conflicts) != 0 {
		t.Fatal("conflict recorded under ablation")
	}
}

// --- Lifecycle ---------------------------------------------------------------

func TestCommitGangClear(t *testing.T) {
	r := newRig(t, 1, subCfg(4))
	e := r.engines[0]
	line := mem.DefaultGeometry.Line(lineA)
	e.BeginTx()
	e.Load(lineA, 8, true)
	e.Store(lineA+16, 8, true)
	if ok, _ := e.CommitTx(); !ok {
		t.Fatal("commit failed")
	}
	for i, s := range e.SubStates(line) {
		if s != NonSpec {
			t.Fatalf("sub-block %d = %v after commit", i, s)
		}
	}
	// The written line stays a valid modified line.
	if st := r.bus.State(0, line); st != coherence.Modified {
		t.Fatalf("committed line state %v, want M", st)
	}
	if e.Stats.TxCommits != 1 || e.Stats.CommittedLines == 0 {
		t.Fatalf("stats: %+v", e.Stats)
	}
}

func TestAbortDiscardsSpeculativeWrites(t *testing.T) {
	r := newRig(t, 1, subCfg(4))
	e := r.engines[0]
	lineW := mem.DefaultGeometry.Line(lineA)
	addrR := lineA + 256
	lineR := mem.DefaultGeometry.Line(addrR)

	e.BeginTx()
	e.Store(lineA, 8, true)
	e.Load(addrR, 8, true)
	e.Abort(ReasonUser)

	// Written line destroyed (no writeback), read line retained as data.
	if st := r.bus.State(0, lineW); st != coherence.Invalid {
		t.Fatalf("aborted written line state %v, want I", st)
	}
	if st := r.bus.State(0, lineR); !st.Valid() {
		t.Fatal("aborted read line lost its data copy")
	}
	if r.bus.Stats.Writebacks != 0 {
		t.Fatal("aborted speculative data was written back")
	}
	if ok, reason := e.CommitTx(); ok || reason != ReasonUser {
		t.Fatalf("CommitTx after abort = (%v,%v)", ok, reason)
	}
	if e.SpecLineCount() != 0 {
		t.Fatal("speculative state survived the abort")
	}
}

func TestCapacityAbort(t *testing.T) {
	// Custom rig with a 2-set × 2-way L1: three speculative lines in one
	// set cannot be held.
	cfg := Config{Mode: ModeBaseline}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	bus := coherence.NewBus(1, mem.DefaultGeometry)
	hc := cache.DefaultHierarchy()
	hc.L1 = cache.Config{Name: "L1", SizeBytes: 2 * 2 * 64, LineSize: 64, Assoc: 2, LatencyCyc: 3}
	h := cache.NewHierarchy(hc)
	e := NewEngine(0, cfg, bus, h, Hooks{})
	bus.Register(0, e)

	e.BeginTx()
	// Lines 0, 2, 4 all map to L1 set 0.
	e.Load(0, 8, true)
	e.Load(2*64, 8, true)
	res := e.Load(4*64, 8, true)
	if !res.CapacityAbort {
		t.Fatal("third same-set speculative line did not capacity-abort")
	}
	if ab, reason := e.AbortPending(); !ab || reason != ReasonCapacity {
		t.Fatalf("abort state (%v,%v)", ab, reason)
	}
	if e.Stats.AbortsBy[ReasonCapacity] != 1 {
		t.Fatal("capacity abort not counted")
	}
}

func TestDirtyClearedByNonTxLoad(t *testing.T) {
	r := newRig(t, 2, subCfg(4))
	t0, t1 := r.engines[0], r.engines[1]
	line := mem.DefaultGeometry.Line(lineA)

	t0.BeginTx()
	t0.Store(lineA, 8, true)
	t1.Load(lineA+32, 8, false) // non-tx load still receives the piggyback mask
	if t1.SubStates(line)[0] != Dirty {
		t.Fatal("non-tx load did not record the dirty mark")
	}
	t0.CommitTx()
	t1.Load(lineA, 8, false) // dirty hit: refetch, clear to Non-speculative
	if s := t1.SubStates(line)[0]; s != NonSpec {
		t.Fatalf("dirty state after non-tx refetch = %v", s)
	}
}

func TestStoreOverwritesDirtyMark(t *testing.T) {
	r := newRig(t, 2, subCfg(4))
	t0, t1 := r.engines[0], r.engines[1]
	line := mem.DefaultGeometry.Line(lineA)

	t0.BeginTx()
	t0.Store(lineA, 8, true)
	t1.Load(lineA+32, 8, false) // dirty mark on sub-block 0
	t0.CommitTx()
	t1.Store(lineA, 8, false) // non-tx store over the dirty sub-block
	if s := t1.SubStates(line)[0]; s != NonSpec {
		t.Fatalf("dirty state after overwriting store = %v", s)
	}
}

func TestForceAbortIdempotent(t *testing.T) {
	r := newRig(t, 1, Config{Mode: ModeBaseline})
	e := r.engines[0]
	e.ForceAbort(ReasonLock) // outside tx: no-op
	if e.Stats.TxAborts != 0 {
		t.Fatal("ForceAbort outside tx counted an abort")
	}
	e.BeginTx()
	e.ForceAbort(ReasonLock)
	e.ForceAbort(ReasonLock) // second is a no-op
	if e.Stats.TxAborts != 1 {
		t.Fatalf("TxAborts = %d", e.Stats.TxAborts)
	}
	if _, reason := e.AbortPending(); reason != ReasonLock {
		t.Fatalf("reason %v", reason)
	}
}

// --- Perfect mode ------------------------------------------------------------

func TestMagicProbeTrueConflictOnly(t *testing.T) {
	r := newRig(t, 2, Config{Mode: ModePerfect})
	h := r.engines[0]
	h.BeginTx()
	h.Store(lineA, 8, true)

	// magic runs h's check for a one-line access [a, a+size) by core 1.
	magic := func(a mem.Addr, size int, write bool) bool {
		p := mem.Access{Line: mem.DefaultGeometry.Line(a), Off: mem.DefaultGeometry.Offset(a), Size: size}
		return h.MagicProbe(1, p, r.bus.LineIndex().Index(p.Line), write)
	}

	// Disjoint bytes in the same line: no conflict in the perfect system.
	if magic(lineA+32, 8, true) {
		t.Fatal("perfect system reported a false conflict")
	}
	if ab, _ := aborted(h); ab {
		t.Fatal("holder aborted on disjoint probe")
	}
	// Overlapping read: true RAW.
	if !magic(lineA+4, 2, false) {
		t.Fatal("perfect system missed a true conflict")
	}
	if ab, _ := aborted(h); !ab {
		t.Fatal("holder not aborted")
	}
	if v := r.conflicts[0].Verdict; !v.True || v.Type != oracle.RAW {
		t.Fatalf("verdict %+v", v)
	}
}

func TestPerfectModeIgnoresProbeChecks(t *testing.T) {
	r := newRig(t, 2, Config{Mode: ModePerfect})
	h, q := r.engines[0], r.engines[1]
	h.BeginTx()
	h.Load(lineA, 8, true)
	q.Store(lineA, 8, false) // overlapping! but perfect mode detects via magic only
	if ab, _ := aborted(h); ab {
		t.Fatal("perfect mode aborted from a coherence probe")
	}
}

// --- Misc --------------------------------------------------------------------

func TestLineCrossingAccessSetsBothLines(t *testing.T) {
	r := newRig(t, 1, Config{Mode: ModeBaseline})
	e := r.engines[0]
	e.BeginTx()
	e.Load(lineA+60, 8, true) // 4 bytes in line A, 4 in line A+64
	g := mem.DefaultGeometry
	if e.SubStates(g.Line(lineA))[0] != SpecRead {
		t.Fatal("first line not marked")
	}
	if e.SubStates(g.Line(lineA + 64))[0] != SpecRead {
		t.Fatal("second line not marked")
	}
	if e.SpecLineCount() != 2 {
		t.Fatalf("SpecLineCount = %d", e.SpecLineCount())
	}
}

func TestBeginTxTwicePanics(t *testing.T) {
	r := newRig(t, 1, Config{Mode: ModeBaseline})
	e := r.engines[0]
	e.BeginTx()
	defer func() {
		if recover() == nil {
			t.Fatal("nested BeginTx did not panic")
		}
	}()
	e.BeginTx()
}

func TestSpecAccessOutsideTxPanics(t *testing.T) {
	r := newRig(t, 1, Config{Mode: ModeBaseline})
	defer func() {
		if recover() == nil {
			t.Fatal("speculative access outside tx did not panic")
		}
	}()
	r.engines[0].Load(lineA, 8, true)
}

func TestSpecAccessHooks(t *testing.T) {
	var events int
	cfg := Config{Mode: ModeBaseline}
	_ = cfg.Normalize()
	bus := coherence.NewBus(1, mem.DefaultGeometry)
	h := cache.NewHierarchy(cache.DefaultHierarchy())
	e := NewEngine(0, cfg, bus, h, Hooks{
		OnSpecAccess: func(core int, line mem.LineAddr, off, size int, write bool) { events++ },
	})
	bus.Register(0, e)
	e.BeginTx()
	e.Load(lineA, 8, true)
	e.Store(lineA, 8, true)
	e.Load(lineA, 8, false) // non-tx: no event
	if events != 2 {
		t.Fatalf("OnSpecAccess fired %d times, want 2", events)
	}
}

func TestPiggybackPenaltyCharged(t *testing.T) {
	run := func(pen int64) int64 {
		cfg := subCfg(4)
		cfg.PiggybackPenalty = pen
		r := newRig(t, 2, cfg)
		h, q := r.engines[0], r.engines[1]
		h.BeginTx()
		h.Store(lineA, 8, true) // S-WR: replies to readers carry a mask
		q.BeginTx()
		res := q.Load(lineA+32, 8, true) // masked reply
		q.CommitTx()
		h.CommitTx()
		return res.Latency
	}
	base := run(0)
	slow := run(50)
	if slow != base+50 {
		t.Fatalf("penalty not charged: %d vs %d+50", slow, base)
	}
}
