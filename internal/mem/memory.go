package mem

import (
	"encoding/binary"
	"fmt"
)

// pageSize is the granularity of sparse backing allocation. It is an
// implementation detail invisible to callers.
const pageSize = 1 << 12

// memMaxPages bounds the page directory (the first 1 GiB of the address
// space); pages beyond it live in a map.
const memMaxPages = 1 << 18

// Memory is the simulated physical memory: a sparse, paged byte store.
// Workloads keep their real data here (accessed through the transactional
// runtime), which is what lets tests assert functional correctness of the
// transactional programs, not just timing.
//
// Pages are found through a direct table indexed by page number, grown on
// first touch, so the hot path does no hashing; pages past the table's
// reach fall back to a map, so any address works.
//
// Memory itself is not synchronized; the simulator is single-threaded at
// any instant by construction.
type Memory struct {
	dir      []*[pageSize]byte          // by page number, below memMaxPages
	far      map[uint64]*[pageSize]byte // by page number, the rest
	resident []uint64                   // page numbers in first-touch order
	free     []*[pageSize]byte          // zeroed pages recycled by Reset
}

// NewMemory returns an empty memory. Unwritten bytes read as zero.
func NewMemory() *Memory { return &Memory{} }

func (m *Memory) page(a Addr, create bool) (*[pageSize]byte, int) {
	pn := uint64(a) / pageSize
	off := int(uint64(a) % pageSize)
	var p *[pageSize]byte
	if pn < uint64(len(m.dir)) {
		p = m.dir[pn]
	} else if pn >= memMaxPages {
		p = m.far[pn]
	}
	if p != nil || !create {
		return p, off
	}
	if n := len(m.free); n > 0 {
		p = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		p = new([pageSize]byte)
	}
	if pn < memMaxPages {
		if pn >= uint64(len(m.dir)) {
			m.dir = append(m.dir, make([]*[pageSize]byte, int(pn)+1-len(m.dir))...)
		}
		m.dir[pn] = p
	} else {
		if m.far == nil {
			m.far = make(map[uint64]*[pageSize]byte)
		}
		m.far[pn] = p
	}
	m.resident = append(m.resident, pn)
	return p, off
}

// Read copies len(dst) bytes starting at a into dst.
func (m *Memory) Read(a Addr, dst []byte) {
	for len(dst) > 0 {
		p, off := m.page(a, false)
		n := pageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if p == nil {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], p[off:off+n])
		}
		dst = dst[n:]
		a += Addr(n)
	}
}

// Write copies src into memory starting at a.
func (m *Memory) Write(a Addr, src []byte) {
	for len(src) > 0 {
		p, off := m.page(a, true)
		n := pageSize - off
		if n > len(src) {
			n = len(src)
		}
		copy(p[off:off+n], src[:n])
		src = src[n:]
		a += Addr(n)
	}
}

// LoadUint reads a size-byte little-endian unsigned integer at a.
// size must be 1, 2, 4 or 8.
func (m *Memory) LoadUint(a Addr, size int) uint64 {
	var buf [8]byte
	m.Read(a, buf[:size])
	switch size {
	case 1:
		return uint64(buf[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(buf[:2]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf[:4]))
	case 8:
		return binary.LittleEndian.Uint64(buf[:8])
	}
	panic(fmt.Sprintf("mem: LoadUint size %d", size))
}

// StoreUint writes a size-byte little-endian unsigned integer at a.
// size must be 1, 2, 4 or 8.
func (m *Memory) StoreUint(a Addr, size int, v uint64) {
	var buf [8]byte
	switch size {
	case 1:
		buf[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(buf[:2], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(buf[:8], v)
	default:
		panic(fmt.Sprintf("mem: StoreUint size %d", size))
	}
	m.Write(a, buf[:size])
}

// Footprint returns the number of resident pages; used by tests to check
// that workloads stay within expected bounds.
func (m *Memory) Footprint() int { return len(m.resident) }

// Reset returns the memory to the empty state (all bytes read as zero)
// while recycling the page storage, so a reused machine does not
// re-allocate its working set. Only the pages the run touched are visited.
func (m *Memory) Reset() {
	for _, pn := range m.resident {
		var p *[pageSize]byte
		if pn < memMaxPages {
			p = m.dir[pn]
			m.dir[pn] = nil
		} else {
			p = m.far[pn]
			delete(m.far, pn)
		}
		*p = [pageSize]byte{}
		m.free = append(m.free, p)
	}
	m.resident = m.resident[:0]
}
