package mem

// LineIndexer assigns small dense integer indices to cache-line addresses
// in first-touch order. The simulator's per-line bookkeeping (coherence
// state, snoop-filter directory, speculative sub-block masks, footprint
// bitsets) is keyed by these indices instead of by LineAddr, which turns
// hash-map lookups on the hot path into slice indexing and lets "clear
// everything" be an epoch bump in the owning table.
//
// The line → index map is itself a paged direct table indexed by line
// number: a directory of fixed-size leaf pages, allocated on first touch.
// Lines past the directory's reach (or not aligned to the geometry) fall
// back to a map, so any address works; the simulator's own allocations
// all stay in the table.
//
// Index values are an internal addressing scheme only: no simulated result
// may depend on them. They are deterministic all the same (the same op
// stream assigns the same indices), which keeps index-order iteration
// reproducible where it is used for order-independent work.
type LineIndexer struct {
	shift uint   // log2(line size): line number = LineAddr >> shift
	mask  uint64 // offset bits; a LineAddr with any set is not aligned

	// dir[p][i] holds index+1 of line number p<<idxPageBits | i (0 = none).
	// Pages no line has touched are the shared, never-written noLines.
	dir   []*[idxPageLen]int32
	far   map[LineAddr]int32 // lines the directory does not cover
	lines []LineAddr
}

const (
	idxPageBits = 10
	idxPageLen  = 1 << idxPageBits
	idxPageMask = idxPageLen - 1
	// idxMaxPages bounds the directory: with 64-byte lines it covers the
	// first 4 GiB of the address space.
	idxMaxPages = 1 << 16
)

// noLines stands in for every untouched page of every indexer's directory,
// so lookups need no nil check. It is never written.
var noLines [idxPageLen]int32

// NewLineIndexer returns an empty indexer for lines of geometry g.
func NewLineIndexer(g Geometry) *LineIndexer {
	shift := uint(0)
	for 1<<shift < g.LineSize {
		shift++
	}
	return &LineIndexer{shift: shift, mask: uint64(g.LineSize - 1)}
}

// slot returns the table entry for l, or nil when l is not aligned or lies
// beyond the directory's reach. Missing pages (and directory length) are
// allocated.
func (x *LineIndexer) slot(l LineAddr) *int32 {
	if uint64(l)&x.mask != 0 {
		return nil
	}
	n := uint64(l) >> x.shift
	pn := n >> idxPageBits
	if pn >= uint64(len(x.dir)) {
		if pn >= idxMaxPages {
			return nil
		}
		for uint64(len(x.dir)) <= pn {
			x.dir = append(x.dir, &noLines)
		}
	}
	p := x.dir[pn]
	if p == &noLines {
		p = new([idxPageLen]int32)
		x.dir[pn] = p
	}
	return &p[n&idxPageMask]
}

// Index returns the dense index for line l, assigning the next free index
// on first touch.
func (x *LineIndexer) Index(l LineAddr) int {
	if i, ok := x.Lookup(l); ok {
		return i
	}
	i := int32(len(x.lines))
	x.lines = append(x.lines, l)
	if s := x.slot(l); s != nil {
		*s = i + 1
		return int(i)
	}
	if x.far == nil {
		x.far = make(map[LineAddr]int32)
	}
	x.far[l] = i
	return int(i)
}

// Lookup returns the index for l without assigning one. It is small
// enough to inline: the hot path is two loads and no call.
func (x *LineIndexer) Lookup(l LineAddr) (int, bool) {
	n := uint64(l) >> x.shift
	if pn := n >> idxPageBits; pn < uint64(len(x.dir)) && uint64(l)&x.mask == 0 {
		v := x.dir[pn][n&idxPageMask]
		return int(v) - 1, v != 0
	}
	i, ok := x.far[l]
	return int(i), ok
}

// Line returns the address mapped to index i (the inverse of Index).
func (x *LineIndexer) Line(i int) LineAddr { return x.lines[i] }

// Len returns the number of assigned indices.
func (x *LineIndexer) Len() int { return len(x.lines) }

// Reset forgets every assignment while keeping the backing storage, so a
// reused machine re-assigns indices in exactly fresh-machine order. Only
// the table entries this run assigned are cleared.
func (x *LineIndexer) Reset() {
	for _, l := range x.lines {
		n := uint64(l) >> x.shift
		if pn := n >> idxPageBits; pn < uint64(len(x.dir)) && uint64(l)&x.mask == 0 {
			x.dir[pn][n&idxPageMask] = 0
		}
	}
	clear(x.far)
	x.lines = x.lines[:0]
}
