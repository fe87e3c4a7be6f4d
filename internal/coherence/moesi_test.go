package coherence

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

const testLine = mem.LineAddr(0x1000)

// recorder is a Snooper that logs probes and replies with a fixed mask.
type recorder struct {
	probes []Probe
	mask   uint64
}

func (r *recorder) Snoop(p Probe) Reply {
	r.probes = append(r.probes, p)
	return Reply{WrittenMask: r.mask}
}

// lineIdx returns l's dense index on b, assigning one on first use, the
// way an engine resolves a piece's line before its bus transaction.
func lineIdx(b *Bus, l mem.LineAddr) int { return b.LineIndex().Index(l) }

func newTestBus(n int) (*Bus, []*recorder) {
	b := NewBus(n, mem.DefaultGeometry)
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = &recorder{}
		b.Register(i, recs[i])
	}
	return b, recs
}

func TestColdReadGetsExclusive(t *testing.T) {
	b, _ := newTestBus(4)
	res := b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	if res.Source != SourceMemory {
		t.Fatalf("cold read sourced from %v", res.Source)
	}
	if b.State(0, testLine) != Exclusive {
		t.Fatalf("cold read left state %v, want E", b.State(0, testLine))
	}
}

func TestSecondReaderSharesAndDowngradesE(t *testing.T) {
	b, _ := newTestBus(4)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	res := b.Read(1, lineIdx(b, testLine), 0, 8, false, false)
	if res.Source != SourceRemote {
		t.Fatalf("second read sourced from %v, want remote (E forwards)", res.Source)
	}
	if b.State(0, testLine) != Shared || b.State(1, testLine) != Shared {
		t.Fatalf("states after E->S: %v / %v", b.State(0, testLine), b.State(1, testLine))
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	b, _ := newTestBus(4)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	b.Read(1, lineIdx(b, testLine), 0, 8, false, false)
	res := b.Write(2, lineIdx(b, testLine), 0, 8, false)
	if !res.HadRemoteCopy {
		t.Fatal("write did not see remote copies")
	}
	if b.State(0, testLine) != Invalid || b.State(1, testLine) != Invalid {
		t.Fatal("sharers not invalidated")
	}
	if b.State(2, testLine) != Modified {
		t.Fatalf("writer state %v, want M", b.State(2, testLine))
	}
}

func TestModifiedForwardsAndBecomesOwned(t *testing.T) {
	b, _ := newTestBus(4)
	b.Write(0, lineIdx(b, testLine), 0, 8, false)
	res := b.Read(1, lineIdx(b, testLine), 0, 8, false, false)
	if res.Source != SourceRemote {
		t.Fatalf("read of M line sourced from %v", res.Source)
	}
	if b.State(0, testLine) != Owned || b.State(1, testLine) != Shared {
		t.Fatalf("M->O transition wrong: %v / %v", b.State(0, testLine), b.State(1, testLine))
	}
}

func TestSilentStoreOnExclusive(t *testing.T) {
	b, _ := newTestBus(2)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false) // E
	res := b.Write(0, lineIdx(b, testLine), 0, 8, false)
	if !res.SilentUpgrade {
		t.Fatal("store on E was not silent")
	}
	if b.State(0, testLine) != Modified {
		t.Fatal("E->M silent upgrade failed")
	}
	if b.Stats.ProbesInvalidate != 0 {
		t.Fatal("silent store sent probes")
	}
}

func TestTransactionalStoreAlwaysProbes(t *testing.T) {
	b, recs := newTestBus(3)
	b.Read(0, lineIdx(b, testLine), 0, 8, true, false) // E at core 0
	b.Write(0, lineIdx(b, testLine), 0, 8, true)       // tx store: must broadcast despite E
	if b.Stats.ProbesInvalidate != 1 {
		t.Fatalf("tx store sent %d invalidating probes, want 1", b.Stats.ProbesInvalidate)
	}
	for _, c := range []int{1, 2} {
		if len(recs[c].probes) == 0 {
			t.Fatalf("core %d saw no probe from tx store", c)
		}
	}
}

func TestSharedOnlyCopiesServeFromMemory(t *testing.T) {
	b, _ := newTestBus(4)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false) // E at 0
	b.Read(1, lineIdx(b, testLine), 0, 8, false, false) // S at 0 and 1
	// Drop core 0; only an S copy remains — MOESI has no owner, memory serves.
	b.Drop(0, testLine, false)
	res := b.Read(2, lineIdx(b, testLine), 0, 8, false, false)
	if res.Source != SourceMemory {
		t.Fatalf("S-only read sourced from %v, want memory", res.Source)
	}
}

func TestProbeCarriesAccessFootprint(t *testing.T) {
	b, recs := newTestBus(2)
	b.Read(1, lineIdx(b, testLine), 12, 4, true, false)
	if len(recs[0].probes) != 1 {
		t.Fatalf("core 0 saw %d probes", len(recs[0].probes))
	}
	p := recs[0].probes[0]
	if p.From != 1 || p.Line != testLine || p.Off != 12 || p.Size != 4 || p.Invalidating || !p.Transactional {
		t.Fatalf("probe fields wrong: %+v", p)
	}
}

func TestPiggybackMaskReturned(t *testing.T) {
	b, recs := newTestBus(3)
	b.Write(1, lineIdx(b, testLine), 0, 8, true) // core 1 owns (M)
	recs[1].mask = 0b0101
	res := b.Read(0, lineIdx(b, testLine), 16, 4, true, false)
	if res.WrittenMask != 0b0101 {
		t.Fatalf("piggyback mask %b", res.WrittenMask)
	}
	if b.Stats.PiggybackedMasks != 1 {
		t.Fatal("piggyback stat not counted")
	}
}

func TestForcedReadFromValidState(t *testing.T) {
	// The dirty-sub-block re-request: requester holds a valid copy but
	// goes to the bus anyway.
	b, recs := newTestBus(2)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	before := len(recs[1].probes)
	res := b.Read(0, lineIdx(b, testLine), 0, 8, true, true)
	if res.Source == SourceLocal {
		t.Fatal("forced read did not reach the bus")
	}
	if len(recs[1].probes) != before+1 {
		t.Fatal("forced read did not probe remotes")
	}
	if !b.State(0, testLine).Valid() {
		t.Fatal("forced read lost the local state")
	}
}

func TestUnforcedLocalReadIsLocal(t *testing.T) {
	b, _ := newTestBus(2)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	res := b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	if res.Source != SourceLocal {
		t.Fatalf("local re-read sourced from %v", res.Source)
	}
}

func TestDropWritebackAccounting(t *testing.T) {
	b, _ := newTestBus(2)
	b.Write(0, lineIdx(b, testLine), 0, 8, false)
	b.Drop(0, testLine, false)
	if b.Stats.Writebacks != 1 {
		t.Fatalf("M drop writebacks = %d, want 1", b.Stats.Writebacks)
	}
	b.Write(1, lineIdx(b, testLine), 0, 8, false)
	b.Drop(1, testLine, true) // discarded speculative data: NO writeback
	if b.Stats.Writebacks != 1 {
		t.Fatalf("discarding drop counted a writeback")
	}
	if b.State(1, testLine) != Invalid {
		t.Fatal("drop left state valid")
	}
}

func TestUpgradeFromShared(t *testing.T) {
	b, _ := newTestBus(3)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	b.Read(1, lineIdx(b, testLine), 0, 8, false, false)
	res := b.Write(0, lineIdx(b, testLine), 0, 8, false)
	if res.Source != SourceLocal || !res.HadRemoteCopy {
		t.Fatalf("upgrade result %+v", res)
	}
	if b.Stats.Upgrades != 1 {
		t.Fatalf("upgrades = %d", b.Stats.Upgrades)
	}
}

func TestStateStringAndHelpers(t *testing.T) {
	if Modified.String() != "M" || Invalid.String() != "I" || Owned.String() != "O" {
		t.Fatal("State.String broken")
	}
	if Invalid.Valid() || !Shared.Valid() {
		t.Fatal("Valid() broken")
	}
	if !Modified.CanWriteSilently() || !Exclusive.CanWriteSilently() || Shared.CanWriteSilently() {
		t.Fatal("CanWriteSilently broken")
	}
}

// TestMOESIInvariantsUnderRandomOps drives random reads/writes/drops from
// random cores and checks the protocol's global safety invariants after
// every step — the core property-based test of the protocol.
func TestMOESIInvariantsUnderRandomOps(t *testing.T) {
	b, _ := newTestBus(8)
	r := rng.New(99)
	lines := []mem.LineAddr{0, 64, 128, 4096}
	for i := 0; i < 20000; i++ {
		core := r.Intn(8)
		line := lines[r.Intn(len(lines))]
		switch r.Intn(5) {
		case 0, 1:
			if b.State(core, line).Valid() {
				// Local hit: no bus transaction (as the machine would do).
				continue
			}
			b.Read(core, lineIdx(b, line), r.Intn(8)*8, 8, r.Bool(0.5), false)
		case 2, 3:
			b.Write(core, lineIdx(b, line), r.Intn(8)*8, 8, r.Bool(0.5))
		case 4:
			b.Drop(core, line, r.Bool(0.5))
		}
		if err := b.CheckAllInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestValueVisibilityOrder checks the sequencing property the functional
// layer relies on: after core A writes and core B reads, B's copy is valid
// and A's is O (still responsible), so a subsequent write by B invalidates
// A — no stale-owner resurrection.
func TestValueVisibilityOrder(t *testing.T) {
	b, _ := newTestBus(2)
	b.Write(0, lineIdx(b, testLine), 0, 8, false)
	b.Read(1, lineIdx(b, testLine), 0, 8, false, false)
	b.Write(1, lineIdx(b, testLine), 0, 8, false)
	if b.State(0, testLine) != Invalid {
		t.Fatalf("old owner state %v after new writer", b.State(0, testLine))
	}
	if b.State(1, testLine) != Modified {
		t.Fatalf("new writer state %v", b.State(1, testLine))
	}
	if err := b.CheckAllInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestValidCopies(t *testing.T) {
	b, _ := newTestBus(4)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	b.Read(2, lineIdx(b, testLine), 0, 8, false, false)
	got := b.ValidCopies(testLine)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("ValidCopies = %v", got)
	}
}

func TestStateTableReleased(t *testing.T) {
	b, _ := newTestBus(2)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	b.Drop(0, testLine, false)
	if n := b.liveStateCount(); n != 0 {
		t.Fatalf("state table holds %d entries after all-invalid", n)
	}
}

func TestTrafficAccounting(t *testing.T) {
	b, recs := newTestBus(3)
	_ = recs
	b.SetSubBlocks(4)

	b.Read(0, lineIdx(b, testLine), 0, 8, false, false) // GetS, from memory
	b.Read(1, lineIdx(b, testLine), 0, 8, false, false) // GetS, E->S forward (remote)
	b.Write(2, lineIdx(b, testLine), 0, 8, false)       // GetX, invalidates 2 copies
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false) // GetS, M->O forward
	b.Write(0, lineIdx(b, testLine+64), 0, 8, false)    // GetX, cold (memory)
	b.Drop(0, testLine+64, false)                       // M eviction: writeback

	s := b.Stats
	if s.ProbesShared != 3 {
		t.Errorf("ProbesShared = %d, want 3", s.ProbesShared)
	}
	if s.ProbesInvalidate != 2 {
		t.Errorf("ProbesInvalidate = %d, want 2", s.ProbesInvalidate)
	}
	if s.DataFromRemote != 2 {
		t.Errorf("DataFromRemote = %d, want 2 (E->S and M->O forwards)", s.DataFromRemote)
	}
	if s.DataFromMemory != 3 {
		t.Errorf("DataFromMemory = %d, want 3", s.DataFromMemory)
	}
	if s.Invalidations != 2 {
		t.Errorf("Invalidations = %d, want 2", s.Invalidations)
	}
	if s.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", s.Writebacks)
	}
}

func TestPiggybackBitAccounting(t *testing.T) {
	b, recs := newTestBus(2)
	b.SetSubBlocks(8)
	b.Write(1, lineIdx(b, testLine), 0, 8, true)
	recs[1].mask = 0b1
	b.Read(0, lineIdx(b, testLine), 8, 8, true, false)
	if b.Stats.PiggybackBitsSent != 8 {
		t.Fatalf("PiggybackBitsSent = %d, want 8 (one masked reply at 8 sub-blocks)", b.Stats.PiggybackBitsSent)
	}
}

func TestBusWouldConflictPreCheck(t *testing.T) {
	// Direct exercise of the holder-wins pre-check plumbing: a snooper
	// implementing ConflictChecker is consulted, one that does not is
	// skipped, and no state changes.
	b := NewBus(3, mem.DefaultGeometry)
	ck := &checkerSnooper{conflict: false}
	b.Register(1, ck)
	b.Register(2, &recorder{}) // plain snooper: ignored by the pre-check

	if b.WouldConflict(0, lineIdx(b, testLine), 0, 8, true) {
		t.Fatal("pre-check conflicted with a clean checker")
	}
	ck.conflict = true
	if !b.WouldConflict(0, lineIdx(b, testLine), 0, 8, true) {
		t.Fatal("pre-check missed the checker's conflict")
	}
	// The probed core itself is never consulted.
	if b.WouldConflict(1, lineIdx(b, testLine), 0, 8, true) {
		t.Fatal("pre-check consulted the requester itself")
	}
	if len(ck.probes) != 2 {
		t.Fatalf("checker saw %d pre-check probes, want 2", len(ck.probes))
	}
	if b.State(0, testLine) != Invalid {
		t.Fatal("pre-check mutated coherence state")
	}
}

type checkerSnooper struct {
	conflict bool
	probes   []Probe
}

func (c *checkerSnooper) Snoop(p Probe) Reply { return Reply{} }
func (c *checkerSnooper) WouldConflict(p Probe) bool {
	c.probes = append(c.probes, p)
	return c.conflict
}

func TestInvariantCheckVariants(t *testing.T) {
	b, _ := newTestBus(3)
	b.Read(0, lineIdx(b, testLine), 0, 8, false, false)
	b.Read(1, lineIdx(b, testLine+64), 0, 8, false, false)
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckLineInvariants(testLine); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckLineInvariants(testLine + 4096); err != nil {
		t.Fatal("absent line failed the invariant check:", err)
	}
	// Corrupt the table to prove all three checkers catch it: two E
	// copies of one line.
	b.entry(lineIdx(b, testLine))[1] = Exclusive
	if b.CheckInvariants() == nil || b.CheckAllInvariants() == nil || b.CheckLineInvariants(testLine) == nil {
		t.Fatal("corrupted state passed an invariant check")
	}
}

func TestBusMisc(t *testing.T) {
	b := NewBus(4, mem.DefaultGeometry)
	if b.NumCores() != 4 {
		t.Fatal("NumCores wrong")
	}
	for s, want := range map[Source]string{SourceLocal: "local", SourceRemote: "remote", SourceMemory: "memory"} {
		if s.String() != want {
			t.Errorf("Source(%d).String() = %q", int(s), s.String())
		}
	}
	if Exclusive.String() != "E" || Shared.String() != "S" {
		t.Error("state strings wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewBus(0) did not panic")
		}
	}()
	NewBus(0, mem.DefaultGeometry)
}
