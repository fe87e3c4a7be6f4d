// Package oracle tracks the byte-exact speculative footprint of every
// running transaction. It is the measurement instrument behind the paper's
// characterization: each conflict the ASF engine detects is classified as
// true or false by comparing the probing access's byte range against the
// holder's exact read/write byte sets, and typed as WAR, RAW or WAW
// (Figs. 1 and 2). It also implements the paper's "perfect system with no
// false transactional conflict", which detects conflicts at byte
// granularity (§V-A).
package oracle

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/mem"
)

// ConflictType is the paper's Fig. 2 taxonomy, named after the order
// (second access)-after-(holder's access): an incoming write probing a
// speculatively read line is WAR, an incoming read probing a speculatively
// written line is RAW, and write-over-write is WAW.
type ConflictType int

const (
	WAR ConflictType = iota
	RAW
	WAW
	NumConflictTypes
)

func (t ConflictType) String() string {
	switch t {
	case WAR:
		return "WAR"
	case RAW:
		return "RAW"
	case WAW:
		return "WAW"
	}
	return fmt.Sprintf("ConflictType(%d)", int(t))
}

// Footprint is the exact byte-level speculative read and write sets of one
// transaction attempt. Construct with NewFootprint (or NewFootprintShared
// to key several footprints by one dense index space).
//
// Storage is a packed bitset per line — one bit per byte, LineSize/64
// words per line per set — laid out flat over dense line indices from a
// mem.LineIndexer. A line's bits are live only when its epoch stamp equals
// the attempt epoch, so Reset (every transaction begin) is an integer bump
// plus truncating the touched-line list: no map churn, no per-line
// interval allocations.
type Footprint struct {
	geom mem.Geometry
	ix   *mem.LineIndexer
	wpl  int // uint64 words per line per set (one bit per byte)

	reads, writes []uint64 // line index i's words are [i*wpl, (i+1)*wpl)
	lineEpoch     []uint64 // line i's bits live iff lineEpoch[i] == epoch
	epoch         uint64   // current attempt stamp; starts at 1
	touched       []int32  // live line indices, first-touch order
}

// NewFootprint returns an empty footprint for the given geometry with a
// private line index.
func NewFootprint(g mem.Geometry) *Footprint {
	return NewFootprintShared(g, mem.NewLineIndexer(g))
}

// NewFootprintShared returns an empty footprint keyed by an existing line
// indexer, so the footprint shares one dense index space with the
// coherence bus and the other per-core structures of a machine.
func NewFootprintShared(g mem.Geometry, ix *mem.LineIndexer) *Footprint {
	wpl := (g.LineSize + 63) / 64
	if wpl < 1 {
		wpl = 1
	}
	return &Footprint{geom: g, ix: ix, wpl: wpl, epoch: 1}
}

// Reset empties both sets (transaction begin / after commit / abort).
func (f *Footprint) Reset() {
	f.epoch++
	f.touched = f.touched[:0]
}

// slot returns the word base for line, reviving (zeroing) its bits on
// first touch this attempt.
func (f *Footprint) slot(line mem.LineAddr) int {
	idx := f.ix.Index(line)
	for len(f.lineEpoch) <= idx {
		f.lineEpoch = append(f.lineEpoch, 0)
		for i := 0; i < f.wpl; i++ {
			f.reads = append(f.reads, 0)
			f.writes = append(f.writes, 0)
		}
	}
	base := idx * f.wpl
	if f.lineEpoch[idx] != f.epoch {
		f.lineEpoch[idx] = f.epoch
		for i := 0; i < f.wpl; i++ {
			f.reads[base+i] = 0
			f.writes[base+i] = 0
		}
		f.touched = append(f.touched, int32(idx))
	}
	return base
}

// live returns the word base for line if it was touched this attempt.
func (f *Footprint) live(line mem.LineAddr) (int, bool) {
	idx, ok := f.ix.Lookup(line)
	if !ok || idx >= len(f.lineEpoch) || f.lineEpoch[idx] != f.epoch {
		return 0, false
	}
	return idx * f.wpl, true
}

// clampRange confines [lo, hi) to the line's byte span and reports whether
// anything remains.
func (f *Footprint) clampRange(lo, hi int) (int, int, bool) {
	if lo < 0 {
		lo = 0
	}
	if max := f.wpl * 64; hi > max {
		hi = max
	}
	return lo, hi, lo < hi
}

// setRange sets bits [lo, hi) in the wpl words at base.
func setRange(words []uint64, base, lo, hi int) {
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		from, to := 0, 63
		if w == lo>>6 {
			from = lo & 63
		}
		if w == (hi-1)>>6 {
			to = (hi - 1) & 63
		}
		words[base+w] |= mem.SpanMask(from, to)
	}
}

// anyInRange reports whether any bit in [lo, hi) is set.
func anyInRange(words []uint64, base, lo, hi int) bool {
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		from, to := 0, 63
		if w == lo>>6 {
			from = lo & 63
		}
		if w == (hi-1)>>6 {
			to = (hi - 1) & 63
		}
		if words[base+w]&mem.SpanMask(from, to) != 0 {
			return true
		}
	}
	return false
}

// anyBits reports whether the line's set has any byte recorded.
func (f *Footprint) anyBits(words []uint64, base int) bool {
	for i := 0; i < f.wpl; i++ {
		if words[base+i] != 0 {
			return true
		}
	}
	return false
}

// RecordRead adds the line-confined byte range [off, off+size) to the read set.
func (f *Footprint) RecordRead(line mem.LineAddr, off, size int) {
	base := f.slot(line)
	if lo, hi, ok := f.clampRange(off, off+size); ok {
		setRange(f.reads, base, lo, hi)
	}
}

// RecordWrite adds the range to the write set.
func (f *Footprint) RecordWrite(line mem.LineAddr, off, size int) {
	base := f.slot(line)
	if lo, hi, ok := f.clampRange(off, off+size); ok {
		setRange(f.writes, base, lo, hi)
	}
}

// intervalsOf materializes a bitset back into interval form (nil when no
// byte is recorded). Only the inspection API below uses it; the hot path
// works on the packed words directly.
func (f *Footprint) intervalsOf(words []uint64, base int) *mem.IntervalSet {
	var s *mem.IntervalSet
	for i := 0; i < f.wpl*64; i++ {
		if words[base+i>>6]&(1<<uint(i&63)) != 0 {
			if s == nil {
				s = &mem.IntervalSet{}
			}
			s.Add(i, i+1)
		}
	}
	return s
}

// ReadBytes returns the read-set intervals for line (nil if none).
func (f *Footprint) ReadBytes(line mem.LineAddr) *mem.IntervalSet {
	if base, ok := f.live(line); ok {
		return f.intervalsOf(f.reads, base)
	}
	return nil
}

// WriteBytes returns the write-set intervals for line (nil if none).
func (f *Footprint) WriteBytes(line mem.LineAddr) *mem.IntervalSet {
	if base, ok := f.live(line); ok {
		return f.intervalsOf(f.writes, base)
	}
	return nil
}

// ReadSubBlockMask returns the n-granule sub-block mask of the line's read
// set (bit g set iff any read byte falls in granule g); 0 when the line is
// untouched. Equivalent to ReadBytes(line).SubBlockMask(lineSize, n)
// without materializing intervals.
func (f *Footprint) ReadSubBlockMask(line mem.LineAddr, n int) uint64 {
	if base, ok := f.live(line); ok {
		return f.subBlockMask(f.reads, base, n)
	}
	return 0
}

// WriteSubBlockMask is ReadSubBlockMask for the write set.
func (f *Footprint) WriteSubBlockMask(line mem.LineAddr, n int) uint64 {
	if base, ok := f.live(line); ok {
		return f.subBlockMask(f.writes, base, n)
	}
	return 0
}

func (f *Footprint) subBlockMask(words []uint64, base, n int) uint64 {
	sub := f.geom.LineSize / n
	if sub <= 0 {
		sub = 1
	}
	var m uint64
	for g := 0; g < n; g++ {
		lo, hi, ok := f.clampRange(g*sub, (g+1)*sub)
		if ok && anyInRange(words, base, lo, hi) {
			m |= 1 << uint(g)
		}
	}
	return m
}

// HasLine reports whether the footprint touches line at all.
func (f *Footprint) HasLine(line mem.LineAddr) bool {
	base, ok := f.live(line)
	if !ok {
		return false
	}
	return f.anyBits(f.reads, base) || f.anyBits(f.writes, base)
}

// Lines returns every line in the footprint, sorted (deterministic
// iteration for aborts and stats).
func (f *Footprint) Lines() []mem.LineAddr {
	out := make([]mem.LineAddr, 0, len(f.touched))
	for _, idx := range f.touched {
		out = append(out, f.ix.Line(int(idx)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WrittenLines returns the speculatively written lines, sorted.
func (f *Footprint) WrittenLines() []mem.LineAddr {
	var out []mem.LineAddr
	for _, idx := range f.touched {
		if f.anyBits(f.writes, int(idx)*f.wpl) {
			out = append(out, f.ix.Line(int(idx)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Verdict is the oracle's judgment of one detected conflict.
type Verdict struct {
	True bool         // byte ranges actually overlap per access-type rules
	Type ConflictType // WAR / RAW / WAW (line-granularity typing, as the paper counts them)
}

// Judge classifies a conflict between an incoming probe (invalidating =
// write-intent) covering bytes [off, off+size) of line, and the holder's
// footprint f.
//
//   - Typing follows the holder's speculative use of the LINE, which is
//     what the hardware counters can see: an invalidating probe against a
//     line the holder has written is WAW, against a line only read is WAR;
//     a non-invalidating probe (only ever a conflict against a written
//     line) is RAW.
//   - Truth is byte-exact: a write probe truly conflicts only if it
//     overlaps the holder's read or write BYTES; a read probe only if it
//     overlaps the holder's written BYTES. Everything else is a false
//     conflict caused by sub-line false sharing.
func (f *Footprint) Judge(line mem.LineAddr, off, size int, invalidating bool) Verdict {
	base, liveLine := f.live(line)
	lo, hi, inRange := 0, 0, false
	if liveLine {
		lo, hi, inRange = f.clampRange(off, off+size)
	}
	wroteLine := liveLine && f.anyBits(f.writes, base)
	var v Verdict
	if invalidating {
		if wroteLine {
			v.Type = WAW
		} else {
			v.Type = WAR
		}
		v.True = inRange && (anyInRange(f.reads, base, lo, hi) || anyInRange(f.writes, base, lo, hi))
	} else {
		v.Type = RAW
		v.True = inRange && anyInRange(f.writes, base, lo, hi)
	}
	return v
}

// PerfectConflict implements the paper's ideal zero-false-conflict system:
// it reports whether the probe is a conflict at byte granularity. It is
// exactly Judge(...).True.
func (f *Footprint) PerfectConflict(line mem.LineAddr, off, size int, invalidating bool) bool {
	return f.Judge(line, off, size, invalidating).True
}

// LineCount returns the number of distinct lines in the footprint, used by
// capacity accounting and tests. O(1) on the dense representation.
func (f *Footprint) LineCount() int { return len(f.touched) }

// ByteCounts returns the total bytes in the read and write sets.
func (f *Footprint) ByteCounts() (readBytes, writeBytes int) {
	for _, idx := range f.touched {
		base := int(idx) * f.wpl
		for i := 0; i < f.wpl; i++ {
			readBytes += bits.OnesCount64(f.reads[base+i])
			writeBytes += bits.OnesCount64(f.writes[base+i])
		}
	}
	return
}
