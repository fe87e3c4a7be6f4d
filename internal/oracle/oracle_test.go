package oracle

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

const line = mem.LineAddr(0x40)

func newFP() *Footprint { return NewFootprint(mem.DefaultGeometry) }

// at returns l's dense index in fp's line indexer, assigning one on first
// use, the way the engine resolves a piece's line before recording it.
func at(fp *Footprint, l mem.LineAddr) int { return fp.ix.Index(l) }

func TestJudgeTypingMatrix(t *testing.T) {
	// The full WAR/RAW/WAW typing matrix of Fig. 2, at line granularity.
	cases := []struct {
		name         string
		read, write  bool // holder's use of the line
		invalidating bool // probe kind
		wantType     ConflictType
	}{
		{"write probe vs read-only line", true, false, true, WAR},
		{"write probe vs written line", false, true, true, WAW},
		{"write probe vs read+written line", true, true, true, WAW},
		{"read probe vs written line", false, true, false, RAW},
		{"read probe vs read+written line", true, true, false, RAW},
	}
	for _, c := range cases {
		fp := newFP()
		if c.read {
			fp.RecordRead(at(fp, line), 0, 8)
		}
		if c.write {
			fp.RecordWrite(at(fp, line), 8, 8)
		}
		v := fp.Judge(at(fp, line), 32, 8, c.invalidating)
		if v.Type != c.wantType {
			t.Errorf("%s: type %v, want %v", c.name, v.Type, c.wantType)
		}
		if v.True {
			t.Errorf("%s: non-overlapping bytes judged true", c.name)
		}
	}
}

func TestJudgeTruthByteExact(t *testing.T) {
	fp := newFP()
	fp.RecordRead(at(fp, line), 0, 4)
	fp.RecordWrite(at(fp, line), 16, 4)

	// Write probe overlapping the read bytes: true WAR.
	if v := fp.Judge(at(fp, line), 2, 4, true); !v.True {
		t.Error("write probe over read bytes not true")
	}
	// Write probe overlapping the written bytes: true, typed WAW.
	if v := fp.Judge(at(fp, line), 16, 1, true); !v.True || v.Type != WAW {
		t.Errorf("write probe over written bytes: %+v", v)
	}
	// Read probe overlapping only the READ bytes: no true conflict
	// (read-read is never a conflict).
	if v := fp.Judge(at(fp, line), 0, 4, false); v.True {
		t.Error("read probe over read bytes judged true")
	}
	// Read probe overlapping written bytes: true RAW.
	if v := fp.Judge(at(fp, line), 19, 2, false); !v.True || v.Type != RAW {
		t.Errorf("read probe over written bytes: %+v", v)
	}
	// Byte adjacency is not overlap.
	if v := fp.Judge(at(fp, line), 4, 12, true); v.True {
		t.Error("adjacent-but-disjoint probe judged true")
	}
}

func TestJudgeOtherLine(t *testing.T) {
	fp := newFP()
	fp.RecordWrite(at(fp, line), 0, 8)
	v := fp.Judge(at(fp, line+64), 0, 8, true)
	if v.True {
		t.Error("conflict on untouched line")
	}
	if v.Type != WAR {
		// No writes on that line => typed WAR by definition.
		t.Errorf("type on untouched line = %v", v.Type)
	}
}

func TestPerfectConflictEquivalence(t *testing.T) {
	f := func(roff, rsz, woff, wsz, poff, psz uint8, inv bool) bool {
		fp := newFP()
		fp.RecordRead(at(fp, line), int(roff)%64, int(rsz)%8+1)
		fp.RecordWrite(at(fp, line), int(woff)%64, int(wsz)%8+1)
		off, sz := int(poff)%64, int(psz)%8+1
		return fp.PerfectConflict(line, off, sz, inv) == fp.Judge(at(fp, line), off, sz, inv).True
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintReset(t *testing.T) {
	fp := newFP()
	fp.RecordRead(at(fp, line), 0, 8)
	fp.RecordWrite(at(fp, line+64), 0, 8)
	fp.Reset()
	if fp.HasLine(line) || fp.HasLine(line+64) || len(fp.Lines()) != 0 {
		t.Fatal("Reset left state")
	}
	if r, w := fp.ByteCounts(); r != 0 || w != 0 {
		t.Fatal("Reset left bytes")
	}
}

func TestLinesSortedAndWrittenLines(t *testing.T) {
	fp := newFP()
	fp.RecordWrite(at(fp, 3*64), 0, 4)
	fp.RecordRead(at(fp, 1*64), 0, 4)
	fp.RecordWrite(at(fp, 2*64), 0, 4)
	lines := fp.Lines()
	if len(lines) != 3 || lines[0] != 64 || lines[1] != 128 || lines[2] != 192 {
		t.Fatalf("Lines() = %v", lines)
	}
	wl := fp.WrittenLines()
	if len(wl) != 2 || wl[0] != 128 || wl[1] != 192 {
		t.Fatalf("WrittenLines() = %v", wl)
	}
	if fp.LineCount() != 3 {
		t.Fatalf("LineCount = %d", fp.LineCount())
	}
}

func TestByteCountsMergeOverlaps(t *testing.T) {
	fp := newFP()
	fp.RecordRead(at(fp, line), 0, 8)
	fp.RecordRead(at(fp, line), 4, 8) // overlapping: total distinct read bytes = 12
	r, w := fp.ByteCounts()
	if r != 12 || w != 0 {
		t.Fatalf("ByteCounts = (%d,%d), want (12,0)", r, w)
	}
}

func TestConflictTypeString(t *testing.T) {
	if WAR.String() != "WAR" || RAW.String() != "RAW" || WAW.String() != "WAW" {
		t.Fatal("ConflictType.String broken")
	}
}

func TestReadAndWriteBytesAccessors(t *testing.T) {
	fp := newFP()
	if fp.ReadBytes(line) != nil || fp.WriteBytes(line) != nil {
		t.Fatal("accessors non-nil on empty footprint")
	}
	fp.RecordRead(at(fp, line), 10, 2)
	if s := fp.ReadBytes(line); s == nil || !s.Contains(10, 12) {
		t.Fatal("ReadBytes lost the record")
	}
}
