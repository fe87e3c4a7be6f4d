package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = 0xff
	}
	m.Read(0x5000, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten byte %d read as %#x", i, b)
		}
	}
	if m.Footprint() != 0 {
		t.Fatal("reading allocated pages")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	data := []byte("the quick brown fox")
	m.Write(123, data)
	got := make([]byte, len(data))
	m.Read(123, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: %q != %q", got, data)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	// Straddle the 4K page boundary.
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	m.Write(4096-50, data)
	got := make([]byte, 100)
	m.Read(4096-50, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page write/read mismatch")
	}
	if m.Footprint() != 2 {
		t.Fatalf("expected 2 pages resident, got %d", m.Footprint())
	}
}

func TestLoadStoreUintSizes(t *testing.T) {
	m := NewMemory()
	for _, c := range []struct {
		size int
		val  uint64
	}{
		{1, 0xab},
		{2, 0xabcd},
		{4, 0xdeadbeef},
		{8, 0x0123456789abcdef},
	} {
		a := Addr(0x100 * c.size)
		m.StoreUint(a, c.size, c.val)
		if got := m.LoadUint(a, c.size); got != c.val {
			t.Errorf("size %d: stored %#x, loaded %#x", c.size, c.val, got)
		}
	}
}

func TestStoreUintTruncates(t *testing.T) {
	m := NewMemory()
	m.StoreUint(0, 2, 0x123456) // only low 16 bits should land
	if got := m.LoadUint(0, 2); got != 0x3456 {
		t.Fatalf("2-byte store of %#x read back %#x", 0x123456, got)
	}
	// The neighbouring byte must be untouched.
	if got := m.LoadUint(2, 1); got != 0 {
		t.Fatalf("store leaked into neighbour: %#x", got)
	}
}

func TestLoadUintBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LoadUint(size=3) did not panic")
		}
	}()
	NewMemory().LoadUint(0, 3)
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory()
	m.StoreUint(0, 4, 0x01020304)
	var b [4]byte
	m.Read(0, b[:])
	if b != [4]byte{0x04, 0x03, 0x02, 0x01} {
		t.Fatalf("not little-endian: % x", b)
	}
}

func TestMemoryVsMapModel(t *testing.T) {
	// Property: Memory behaves like a map[Addr]byte with zero default.
	type op struct {
		Addr Addr
		Size uint8
		Val  uint64
	}
	f := func(ops []op) bool {
		m := NewMemory()
		model := make(map[Addr]byte)
		sizes := []int{1, 2, 4, 8}
		for _, o := range ops {
			a := o.Addr % (1 << 20)
			size := sizes[int(o.Size)%4]
			m.StoreUint(a, size, o.Val)
			for i := 0; i < size; i++ {
				model[a+Addr(i)] = byte(o.Val >> (8 * i))
			}
		}
		for a, want := range model {
			if got := m.LoadUint(a, 1); byte(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryFarPagesAndReset: addresses beyond the direct page table
// (here up to 2^63) work like near ones, and Reset zeroes and recycles
// both kinds.
func TestMemoryFarPagesAndReset(t *testing.T) {
	m := NewMemory()
	addrs := []Addr{0x40, 1 << 30, 1<<40 + 4090, 1 << 63}
	for i, a := range addrs {
		m.StoreUint(a, 8, uint64(i+1)*0x0101010101010101)
	}
	for i, a := range addrs {
		if got := m.LoadUint(a, 8); got != uint64(i+1)*0x0101010101010101 {
			t.Fatalf("%#x: read %#x", a, got)
		}
	}
	if m.Footprint() != 5 { // the 1<<40+4090 store straddles two pages
		t.Fatalf("footprint %d pages, want 5", m.Footprint())
	}
	m.Reset()
	if m.Footprint() != 0 {
		t.Fatalf("footprint %d pages after Reset", m.Footprint())
	}
	for _, a := range addrs {
		if got := m.LoadUint(a, 8); got != 0 {
			t.Fatalf("%#x: read %#x after Reset", a, got)
		}
	}
	m.StoreUint(1<<40, 1, 7)
	if len(m.free) != 4 {
		t.Fatalf("%d pages recycled, want 4", len(m.free))
	}
}
