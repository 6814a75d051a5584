// Package mem simulates the machine's memory system: a byte-addressed
// memory image with a bump allocator, backed on demand (see Memory), and a
// three-level set-associative cache hierarchy with in-flight fill tracking.
//
// The in-flight fill table is the heart of the paper's mechanism: a
// PREFETCH starts an asynchronous fill whose completion timestamp is
// recorded; a later LOAD of the same line pays only the residual latency
// max(0, completion-now). Interleaving coroutine execution between the
// prefetch and the load is therefore genuinely what hides the miss.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Memory is the simulated memory image. Addresses are byte offsets in
// [0, Size()); address 0 is kept unmapped so that null-pointer chases fault
// loudly.
//
// The image is demand-backed: size is the logical extent every bounds
// check, fault message and Size() reports, while data backs only the
// prefix [0, len(data)) that has been allocated or stored to. Bytes in
// [len(data), size) read as zero, exactly as an untouched dense image
// would; Alloc and the first store above the backing extend it. A Memory
// is owned by one goroutine.
type Memory struct {
	data []byte // backing of [0, len(data)); brk <= len(data) <= size, len(data) >= 16
	size uint64 // logical size in bytes
	brk  uint64 // bump-allocation watermark
}

// reserved is the never-allocated prefix that keeps address 0 invalid.
const reserved = 64

// NewMemory creates a memory image of the given logical size in bytes. The
// first 64 bytes are reserved (never allocated) so address 0 stays invalid.
func NewMemory(size uint64) *Memory {
	if size < 128 {
		size = 128
	}
	return &Memory{data: make([]byte, reserved), size: size, brk: reserved}
}

// Size returns the logical size of the image in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Brk returns the current allocation watermark.
func (m *Memory) Brk() uint64 { return m.brk }

// Alloc reserves n bytes aligned to align (a power of two) and returns the
// base address. It panics if the image is exhausted — workload construction
// bugs should fail fast.
func (m *Memory) Alloc(n, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	base := (m.brk + align - 1) &^ (align - 1)
	if base < m.brk || base > m.size || n > m.size-base {
		panic(fmt.Sprintf("mem: out of simulated memory (want %d bytes at %#x, have %d)", n, base, m.size))
	}
	m.brk = base + n
	if m.brk > uint64(len(m.data)) {
		m.grow(m.brk)
	}
	return base
}

// grow extends the backing to cover [0, need), need <= size. The new
// extent is the larger of twice the old one and need plus an eighth, so a
// build's regrowth copies stay under about twice its final footprint
// (eager policies cost more than the dense image they replace), and the
// stacks Compose allocates after a builder's power-of-two arrays land in
// the headroom rather than forcing one more doubling.
func (m *Memory) grow(need uint64) {
	n := max(need+min(need/8, m.size-need), min(2*uint64(len(m.data)), m.size))
	data := make([]byte, n)
	copy(data, m.data)
	m.data = data
}

// InBounds reports whether an 8-byte access at addr is valid.
func (m *Memory) InBounds(addr uint64) bool {
	return addr-8 <= m.size-16
}

// Read64 loads the 8-byte little-endian word at addr. The fast path is one
// unsigned compare (addr in [8, len(data)-8], wrap-safe) and the load;
// faults and loads above the backing are outlined. Neither accessor is
// inlined into the core's dispatch: go1.24 costs them 89 and 82 against a
// budget of 80, 57 of it the outlined call itself.
//
//shsim:noalloc
func (m *Memory) Read64(addr uint64) (uint64, error) {
	if addr-8 <= uint64(len(m.data))-16 {
		return binary.LittleEndian.Uint64(m.data[addr:]), nil
	}
	return m.loadSlow(addr)
}

// Write64 stores the 8-byte little-endian word v at addr.
//
//shsim:noalloc
func (m *Memory) Write64(addr, v uint64) error {
	if addr-8 <= uint64(len(m.data))-16 {
		binary.LittleEndian.PutUint64(m.data[addr:], v)
		return nil
	}
	return m.storeSlow(addr, v)
}

// HostPrefetch starts the host's load of the line backing addr. It has
// two callers: a simulated PREFETCH, so the prefetch hides the host
// miss of the later Read64 as it hides the simulated one, and a load or
// store that has missed L2 before, so its host miss overlaps the
// simulated cache walk ahead of its Read64 or Write64. It changes no
// simulated state, and an address outside the backing is ignored, not
// faulted.
//
//shsim:noalloc inline
func (m *Memory) HostPrefetch(addr uint64) {
	if addr < uint64(len(m.data)) {
		hostPrefetch(&m.data[addr])
	}
}

// loadSlow serves a load the backing does not wholly cover: a fault if it
// is out of bounds, otherwise the word with its unbacked bytes zero.
//
//go:noinline
func (m *Memory) loadSlow(addr uint64) (uint64, error) {
	if !m.InBounds(addr) {
		return 0, m.fault("load", addr)
	}
	var w [8]byte
	if addr < uint64(len(m.data)) {
		copy(w[:], m.data[addr:])
	}
	return binary.LittleEndian.Uint64(w[:]), nil
}

// storeSlow serves a store the backing does not wholly cover: a fault if
// it is out of bounds, otherwise the backing grows to hold it.
//
//go:noinline
//shsim:noalloc
func (m *Memory) storeSlow(addr, v uint64) error {
	if !m.InBounds(addr) {
		return m.fault("store", addr)
	}
	m.grow(addr + 8) //shsim:alloc-ok cold: first store above the backing; stacks and data are Alloc'ed (backed), so steady-state stores never get here
	binary.LittleEndian.PutUint64(m.data[addr:], v)
	return nil
}

//go:noinline
func (m *Memory) fault(kind string, addr uint64) error {
	return fmt.Errorf("mem: %s fault at %#x (store size %#x)", kind, addr, m.size)
}

// MustRead64 is Read64 for host-side data construction; it panics on fault.
func (m *Memory) MustRead64(addr uint64) uint64 {
	v, err := m.Read64(addr)
	if err != nil {
		panic(err)
	}
	return v
}

// MustWrite64 is Write64 for host-side data construction; it panics on
// fault.
func (m *Memory) MustWrite64(addr, v uint64) {
	if err := m.Write64(addr, v); err != nil {
		panic(err)
	}
}

// Snapshot returns a copy of the populated region of memory (up to the
// allocation watermark). Tests use it to compare architectural state across
// original and instrumented runs.
func (m *Memory) Snapshot() []byte {
	out := make([]byte, m.brk)
	copy(out, m.data[:m.brk])
	return out
}
