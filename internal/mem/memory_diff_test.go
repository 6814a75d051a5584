package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// denseMemory is the retired representation of Memory — one slice of the
// full logical size — kept here as the reference the demand-backed image
// must be indistinguishable from. Its compares are the wrap-safe ones, so
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

// TestMemoryMatchesDenseReference drives the demand-backed image and the
// dense reference with the same random Alloc/Read64/Write64/Snapshot
// stream and demands identical values, identical error strings and
// identical panics. Addresses are aimed at every edge the backing adds or
// the bounds check has: below 8, around brk, around the end of the
// backing (straddling loads and stores), the untouched region up to size,
// size-8/size-7, and the top 8 bytes of the address space where addr+8
// wraps.
func TestMemoryMatchesDenseReference(t *testing.T) {
	sizes := []uint64{1, 128, 1000, 1 << 12, 1 << 16, 1 << 20}
	// Short streams over fresh images: a long one soon stores near the top
	// and backs everything, which is the dense case.
	for trial := 0; trial < 40*len(sizes); trial++ {
		size := sizes[trial%len(sizes)]
		rng := rand.New(rand.NewSource(int64(trial)))
		got, want := NewMemory(size), newDenseMemory(size)
		if got.Size() != uint64(len(want.data)) {
			t.Fatalf("size %d: Size() = %d, want %d", size, got.Size(), len(want.data))
		}
		around := func(p uint64) uint64 { return p - 12 + uint64(rng.Intn(24)) }
		addr := func() uint64 {
			switch rng.Intn(8) {
			case 0:
				return uint64(rng.Intn(16))
			case 1:
				return around(got.brk)
			case 2:
				return around(uint64(len(got.data)))
			case 3:
				return around(got.size)
			case 4:
				return ^uint64(0) - uint64(rng.Intn(16))
			case 5:
				return got.brk + uint64(rng.Int63n(int64(got.size-got.brk)+1))
			default:
				return uint64(rng.Int63n(int64(got.size)))
			}
		}
		for op := 0; op < 500; op++ {
			switch k := rng.Intn(100); {
			case k < 45:
				a := addr()
				gv, gerr := got.Read64(a)
				wv, werr := want.read64(a)
				if gv != wv || errText(gerr) != errText(werr) {
					t.Fatalf("size %d op %d: Read64(%#x) = %#x, %q; dense %#x, %q", size, op, a, gv, errText(gerr), wv, errText(werr))
				}
				if got.InBounds(a) != want.inBounds(a) {
					t.Fatalf("size %d op %d: InBounds(%#x) = %v, dense %v", size, op, a, got.InBounds(a), want.inBounds(a))
				}
			case k < 90:
				a, v := addr(), rng.Uint64()
				gerr, werr := got.Write64(a, v), want.write64(a, v)
				if errText(gerr) != errText(werr) {
					t.Fatalf("size %d op %d: Write64(%#x) = %q, dense %q", size, op, a, errText(gerr), errText(werr))
				}
			case k < 97:
				// Mostly small requests; now and then one that exhausts
				// the image or wraps base+n.
				n := uint64(rng.Intn(200))
				if rng.Intn(20) == 0 {
					n = []uint64{got.size, ^uint64(0) - 10, ^uint64(0)}[rng.Intn(3)]
				}
				align := []uint64{0, 1, 8, 16, 64, 4096, 3, 1 << 63}[rng.Intn(8)]
				var gb, wb uint64
				gp := caught(func() { gb = got.Alloc(n, align) })
				wp := caught(func() { wb = want.alloc(n, align) })
				if gp != wp || gb != wb || got.Brk() != want.brk {
					t.Fatalf("size %d op %d: Alloc(%d, %d) = %#x panic %q brk %#x; dense %#x panic %q brk %#x",
						size, op, n, align, gb, gp, got.Brk(), wb, wp, want.brk)
				}
			default:
				if !bytes.Equal(got.Snapshot(), want.data[:want.brk]) {
					t.Fatalf("size %d op %d: Snapshot differs from the dense image", size, op)
				}
			}
			if uint64(len(got.data)) > got.size || uint64(len(got.data)) < got.brk {
				t.Fatalf("size %d op %d: backing %d outside [brk %d, size %d]", size, op, len(got.data), got.brk, got.size)
			}
		}
		// Every byte, backed or not, reads as the dense image has it.
		for a := uint64(8); a+8 <= got.size; a += 8 {
			if gv, wv := got.MustRead64(a), binary.LittleEndian.Uint64(want.data[a:]); gv != wv {
				t.Fatalf("size %d: final image differs at %#x: %#x, dense %#x", size, a, gv, wv)
			}
		}
	}
}

// TestMemoryUnbackedRegion pins the slow-path contract for addresses in
// [len(data), size): a load returns zero and leaves the backing alone, a
// store extends the backing and a later load sees it, and an access that
// straddles the end of the backing sees backed bytes and zeros.
func TestMemoryUnbackedRegion(t *testing.T) {
	m := NewMemory(1 << 20)
	backed := len(m.data)
	if backed >= 1<<12 {
		t.Fatalf("a fresh 1 MiB image is backed by %d bytes", backed)
	}
	for _, a := range []uint64{uint64(backed), 1 << 19, m.Size() - 8} {
		if v, err := m.Read64(a); v != 0 || err != nil {
			t.Errorf("Read64(%#x) above the backing = %#x, %v; want 0, nil", a, v, err)
		}
	}
	if len(m.data) != backed {
		t.Errorf("loads grew the backing from %d to %d bytes", backed, len(m.data))
	}

	// Straddle: the last backed byte is the low byte of the word.
	m.data[backed-1] = 0xab
	if v := m.MustRead64(uint64(backed) - 1); v != 0xab {
		t.Errorf("straddling load = %#x, want 0xab", v)
	}
	m.MustWrite64(uint64(backed)-3, 0x1122334455667788)
	if v := m.MustRead64(uint64(backed) - 3); v != 0x1122334455667788 {
		t.Errorf("straddling store read back %#x", v)
	}

	const far = 1 << 18
	m.MustWrite64(far, 0xfeedface)
	if v := m.MustRead64(far); v != 0xfeedface {
		t.Errorf("store above the backing read back %#x", v)
	}
	if n := len(m.data); n < far+8 || uint64(n) > m.Size() {
		t.Errorf("backing is %d bytes after a store at %#x", n, far)
	}
	if m.Brk() != reserved {
		t.Errorf("a store moved brk to %#x", m.Brk())
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
