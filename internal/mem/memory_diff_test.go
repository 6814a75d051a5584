package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// denseMemory is the retired representation of Memory — one slice of the
// full logical size — kept here as the reference the paged image must be
// indistinguishable from. Its compares are the wrap-safe ones, so
// it is also the specification for addresses in the top 8 bytes.
type denseMemory struct {
	data []byte
	brk  uint64
}

func newDenseMemory(size uint64) *denseMemory {
	if size < 128 {
		size = 128
	}
	return &denseMemory{data: make([]byte, size), brk: 64}
}

func (m *denseMemory) alloc(n, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	size := uint64(len(m.data))
	base := (m.brk + align - 1) &^ (align - 1)
	if base < m.brk || base > size || n > size-base {
		panic(fmt.Sprintf("mem: out of simulated memory (want %d bytes at %#x, have %d)", n, base, size))
	}
	m.brk = base + n
	return base
}

func (m *denseMemory) inBounds(addr uint64) bool {
	return addr >= 8 && addr <= uint64(len(m.data))-8
}

func (m *denseMemory) read64(addr uint64) (uint64, error) {
	if !m.inBounds(addr) {
		return 0, fmt.Errorf("mem: load fault at %#x (store size %#x)", addr, len(m.data))
	}
	return binary.LittleEndian.Uint64(m.data[addr:]), nil
}

func (m *denseMemory) write64(addr, v uint64) error {
	if !m.inBounds(addr) {
		return fmt.Errorf("mem: store fault at %#x (store size %#x)", addr, len(m.data))
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
	return nil
}

// caught runs f and returns what it panicked with, as text ("" if it
// returned normally).
func caught(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// snapshot returns the bytes [0, Brk()) of m, unbacked ones zero. Tests
// use it to compare whole images.
func snapshot(m *Memory) []byte {
	out := make([]byte, m.brk)
	for i, p := range m.pages {
		if base := uint64(i) << pageShift; base < m.brk {
			copy(out[base:], p)
		}
	}
	return out
}

// backedBytes is the size of m's backing: every page's length.
func backedBytes(m *Memory) (n int) {
	for _, p := range m.pages {
		n += len(p)
	}
	return n
}

// checkPages holds m to its page invariants: no page is longer than the
// image lets it be, and only page 0 is ever short of that.
func checkPages(m *Memory) string {
	for i, p := range m.pages {
		limit := min(m.size-uint64(i)<<pageShift, pageSize)
		if uint64(len(p)) > limit || i > 0 && p != nil && uint64(len(p)) != limit {
			return fmt.Sprintf("page %d holds %d bytes, limit %d", i, len(p), limit)
		}
	}
	return ""
}

// aim turns a class and a random word into an address at one of the
// edges the paged backing or the bounds check has: below 8, around brk,
// around the end of a page's backing, around every page edge, around
// size, the untouched region up to size, and the top 16 bytes of the
// address space where addr+8 wraps.
func aim(m *Memory, class uint8, r uint64) uint64 {
	around := func(p uint64) uint64 { return p - 12 + r%24 }
	r >>= 8
	switch class % 8 {
	case 0:
		return r % 16
	case 1:
		return around(m.brk)
	case 2:
		if len(m.pages) == 0 {
			return around(reserved)
		}
		i := r % uint64(len(m.pages))
		return around(i<<pageShift + uint64(len(m.pages[i])))
	case 3:
		return around(r % (m.size>>pageShift + 1) << pageShift)
	case 4:
		return around(m.size)
	case 5:
		return ^uint64(0) - r%16
	case 6:
		return m.brk + r%(m.size-m.brk+1)
	default:
		return r % m.size
	}
}

// The operations step applies to both images.
const (
	memRead = iota
	memWrite
	memAlloc
	memPrefetch // HostPrefetch, then the whole images compared
)

// step applies one operation to the paged image and the dense reference
// and describes how they then differ ("" if they agree): values, error
// texts, panics, brk, the backing of what Alloc returned, and the page
// invariants. An Alloc takes its size and alignment from v: mostly small
// requests, now and then one across page edges, or one that exhausts the
// image or wraps base+n.
func step(got *Memory, want *denseMemory, op int, a, v uint64) string {
	switch op {
	case memRead:
		gv, gerr := got.Read64(a)
		wv, werr := want.read64(a)
		if gv != wv || errText(gerr) != errText(werr) {
			return fmt.Sprintf("Read64(%#x) = %#x, %q; dense %#x, %q", a, gv, errText(gerr), wv, errText(werr))
		}
		if got.InBounds(a) != want.inBounds(a) {
			return fmt.Sprintf("InBounds(%#x) = %v, dense %v", a, got.InBounds(a), want.inBounds(a))
		}
	case memWrite:
		if gerr, werr := got.Write64(a, v), want.write64(a, v); errText(gerr) != errText(werr) {
			return fmt.Sprintf("Write64(%#x) = %q, dense %q", a, errText(gerr), errText(werr))
		}
	case memAlloc:
		n := v % 200
		switch v >> 60 {
		case 0:
			n = []uint64{got.size, ^uint64(0) - 10, ^uint64(0)}[v>>8%3]
		case 1:
			n = v % (2 * pageSize)
		}
		align := []uint64{0, 1, 8, 16, 64, 4096, 3, 1 << 63}[v>>16%8]
		var gb, wb uint64
		gp := caught(func() { gb = got.Alloc(n, align) })
		wp := caught(func() { wb = want.alloc(n, align) })
		if gp != wp || gb != wb || got.Brk() != want.brk {
			return fmt.Sprintf("Alloc(%d, %d) = %#x panic %q brk %#x; dense %#x panic %q brk %#x",
				n, align, gb, gp, got.Brk(), wb, wp, want.brk)
		}
		for b := gb; gp == "" && b < gb+n; b++ {
			if i, off := b>>pageShift, b&(pageSize-1); off >= uint64(len(got.page(i))) {
				return fmt.Sprintf("Alloc(%d, %d) = %#x left %#x unbacked", n, align, gb, b)
			}
		}
	case memPrefetch:
		got.HostPrefetch(a)
		if !bytes.Equal(snapshot(got), want.data[:want.brk]) {
			return fmt.Sprintf("after HostPrefetch(%#x) the image differs from the dense one", a)
		}
	}
	return checkPages(got)
}

// checkWhole reads every word of both images.
func checkWhole(t *testing.T, got *Memory, want *denseMemory) {
	t.Helper()
	for a := uint64(8); a+8 <= got.size; a += 8 {
		if gv, wv := got.MustRead64(a), binary.LittleEndian.Uint64(want.data[a:]); gv != wv {
			t.Fatalf("size %d: final image differs at %#x: %#x, dense %#x", got.size, a, gv, wv)
		}
	}
}

// TestMemoryMatchesDenseReference drives the paged image and the dense
// reference with the same random Alloc/Read64/Write64/HostPrefetch
// stream and demands identical values, identical error strings and
// identical panics, with addresses aimed at every edge (aim), across
// images of one short page up to several pages and a partial one.
func TestMemoryMatchesDenseReference(t *testing.T) {
	sizes := []uint64{1, 128, 1000, 1 << 12, 1 << 16, 3<<pageShift + 8, 5<<pageShift + 13, 1 << 20}
	// Short streams over fresh images: a long one soon stores near the top
	// and backs everything, which is the dense case.
	for trial := 0; trial < 40*len(sizes); trial++ {
		size := sizes[trial%len(sizes)]
		rng := rand.New(rand.NewSource(int64(trial)))
		got, want := NewMemory(size), newDenseMemory(size)
		if got.Size() != uint64(len(want.data)) {
			t.Fatalf("size %d: Size() = %d, want %d", size, got.Size(), len(want.data))
		}
		for op := 0; op < 500; op++ {
			kind := memRead
			switch k := rng.Intn(100); {
			case k < 45:
			case k < 90:
				kind = memWrite
			case k < 97:
				kind = memAlloc
			default:
				kind = memPrefetch
			}
			if d := step(got, want, kind, aim(got, uint8(rng.Intn(8)), rng.Uint64()), rng.Uint64()); d != "" {
				t.Fatalf("size %d op %d: %s", size, op, d)
			}
		}
		// Every byte, backed or not, reads as the dense image has it.
		checkWhole(t, got, want)
	}
}

// FuzzMemoryVsDense is TestMemoryMatchesDenseReference with the stream
// from the fuzzer: two bytes pick the image size (up to five pages and a
// partial one), then each 10-byte chunk is one operation (kind and
// address class from its first byte, an address word aimed from the
// next eight, the low byte of the store value or Alloc request from the
// last).
func FuzzMemoryVsDense(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		b := make([]byte, 2+10*300)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		size := (uint64(in[0])<<8 | uint64(in[1])) * (5*pageSize + 8) >> 16
		got, want := NewMemory(size), newDenseMemory(size)
		for k := 2; k+10 <= len(in); k += 10 {
			a := binary.LittleEndian.Uint64(in[k+1:])
			v := a<<8 | uint64(in[k+9])
			if d := step(got, want, int(in[k]&3), aim(got, in[k]>>2, a), v); d != "" {
				t.Fatalf("size %d op %d: %s", size, (k-2)/10, d)
			}
		}
		checkWhole(t, got, want)
	})
}

// TestMemoryUnbackedRegion pins the slow-path contract for unbacked
// bytes: a load returns zero and allocates nothing, a load that straddles
// the end of a page's backing sees stored bytes and zeros, a store that
// straddles a page edge backs the next page, and a far store backs
// exactly its page and reads back.
func TestMemoryUnbackedRegion(t *testing.T) {
	m := NewMemory(1 << 20)
	m.Alloc(100, 8)
	backed := backedBytes(m)
	if backed >= 1<<12 || len(m.pages) != 1 {
		t.Fatalf("a fresh 1 MiB image is backed by %d bytes in %d pages", backed, len(m.pages))
	}
	for _, a := range []uint64{uint64(backed), pageSize, 1 << 19, m.Size() - 8} {
		if v, err := m.Read64(a); v != 0 || err != nil {
			t.Errorf("Read64(%#x) above the backing = %#x, %v; want 0, nil", a, v, err)
		}
	}
	if n := testing.AllocsPerRun(10, func() { m.Read64(1 << 19) }); n != 0 || backedBytes(m) != backed {
		t.Errorf("loads above the backing allocated %.0f times and moved it from %d to %d bytes", n, backed, backedBytes(m))
	}

	// Straddle: the last backed byte of page 0 is the low byte of the word.
	end := uint64(backed)
	m.pages[0][backed-1] = 0xab
	if v := m.MustRead64(end - 1); v != 0xab {
		t.Errorf("straddling load = %#x, want 0xab", v)
	}

	// A store across the edge of a whole page 0 backs page 1.
	edge := uint64(pageSize)
	m.Alloc(edge-m.Brk(), 1)
	if len(m.pages[0]) != pageSize || m.page(1) != nil {
		t.Fatalf("page 0 holds %d bytes, page 1 %d", len(m.pages[0]), len(m.page(1)))
	}
	m.MustWrite64(edge-3, 0x1122334455667788)
	if v := m.MustRead64(edge - 3); v != 0x1122334455667788 {
		t.Errorf("store across a page edge read back %#x", v)
	}
	if len(m.page(1)) != pageSize {
		t.Errorf("a store across a page edge backed %d bytes of page 1", len(m.page(1)))
	}

	const far = 1 << 18
	before := backedBytes(m)
	m.MustWrite64(far, 0xfeedface)
	if v := m.MustRead64(far); v != 0xfeedface {
		t.Errorf("store above the backing read back %#x", v)
	}
	if n := backedBytes(m) - before; n != pageSize {
		t.Errorf("a store at %#x backed %d bytes, want one page", far, n)
	}
	if m.Brk() != edge {
		t.Errorf("stores moved brk to %#x", m.Brk())
	}
}

// TestAllocWrapPanics pins the fix for a wrapped watermark: base+n
// overflowed for n near 2^64, so Alloc(2^64-11, 8) "succeeded" and left
// brk at 0x35.
func TestAllocWrapPanics(t *testing.T) {
	m := NewMemory(1 << 16)
	msg := caught(func() { m.Alloc(^uint64(0)-10, 8) })
	if want := "mem: out of simulated memory (want 18446744073709551605 bytes at 0x40, have 65536)"; msg != want {
		t.Errorf("Alloc(2^64-11, 8) panicked with %q, want %q", msg, want)
	}
	if m.Brk() != reserved {
		t.Errorf("failed Alloc moved brk to %#x", m.Brk())
	}
}

// TestMemoryAccessAllocFree is the runtime half of the //shsim:noalloc
// annotation on Read64/Write64: accesses to backed memory — everything a
// workload Alloc'ed — never allocate.
func TestMemoryAccessAllocFree(t *testing.T) {
	m := NewMemory(1 << 20)
	base := m.Alloc(1<<12, 64)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		for a := base; a < base+1<<12; a += 8 {
			if err := m.Write64(a, a); err != nil {
				t.Fatal(err)
			}
			v, err := m.Read64(a)
			if err != nil {
				t.Fatal(err)
			}
			sink += v
		}
	})
	if allocs != 0 {
		t.Errorf("backed Read64/Write64 allocated %.0f times per run", allocs)
	}
	_ = sink
}
