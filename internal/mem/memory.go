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
	"slices"
)

// Memory is the simulated memory image. Addresses are byte offsets in
// [0, Size()); address 0 is kept unmapped so that null-pointer chases fault
// loudly.
//
// The image is demand-backed by a page table: size is the logical extent
// every bounds check, fault message and Size() reports, while pages[i]
// backs the first len(pages[i]) bytes of page i, the pageSize bytes from
// address i*pageSize (nil backs none). Unbacked bytes read as zero,
// exactly as an untouched dense image would; Alloc backs what it hands
// out and the first store to an unbacked byte backs its page. A page is
// allocated whole on first need, so a growing image never copies, except
// page 0, which starts short and doubles up to pageSize so that an image
// under one page costs what it touches. A page starts on a host
// allocation's boundary, so simulated and host cache lines coincide. A
// Memory is owned by one goroutine.
type Memory struct {
	pages [][]byte // pages[i] backs [i*pageSize, i*pageSize+len(pages[i]))
	size  uint64   // logical size in bytes
	brk   uint64   // bump-allocation watermark
}

const (
	// reserved is the never-allocated prefix that keeps address 0 invalid.
	reserved = 64
	// pageShift and pageSize fix the backing's page: 64 KiB.
	pageShift = 16
	pageSize  = 1 << pageShift
)

// NewMemory creates a memory image of the given logical size in bytes. The
// first 64 bytes are reserved (never allocated) so address 0 stays invalid.
func NewMemory(size uint64) *Memory {
	if size < 128 {
		size = 128
	}
	return &Memory{size: size, brk: reserved}
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
	// Back each page [base, brk) touches, from base's page to the next
	// page start, up to brk.
	for a := base; a < m.brk; a = (a | (pageSize - 1)) + 1 {
		m.back(a>>pageShift, min(m.brk-(a&^(pageSize-1)), pageSize))
	}
	return base
}

// back makes page i hold at least need bytes (need is within the image)
// and returns it. Every page but page 0 is allocated whole; page 0 grows
// to the larger of need and twice its length.
func (m *Memory) back(i, need uint64) []byte {
	if n := int(i) + 1; n > len(m.pages) {
		m.pages = slices.Grow(m.pages, n-len(m.pages))[:n]
	}
	p := m.pages[i]
	if uint64(len(p)) >= need {
		return p
	}
	n := min(m.size-i<<pageShift, pageSize)
	if i == 0 {
		n = min(n, max(need, 2*uint64(len(p))))
	}
	m.pages[i] = make([]byte, n)
	copy(m.pages[i], p)
	return m.pages[i]
}

// page returns the backing of page i (nil if none).
func (m *Memory) page(i uint64) []byte {
	if i < uint64(len(m.pages)) {
		return m.pages[i]
	}
	return nil
}

// InBounds reports whether an 8-byte access at addr is valid.
func (m *Memory) InBounds(addr uint64) bool {
	return addr-8 <= m.size-16
}

// Read64 loads the 8-byte little-endian word at addr. The fast path is
// one shift, one page lookup and one bounds compare, then the load. It
// looks the page up from addr-8: an address below 8 (always a fault)
// wraps beyond the table, and a word in the first 8 bytes of page i
// looks past the end of page i-1, so both fail the compare, as do words
// that straddle a page edge or reach unbacked bytes; the outlined slow
// path serves them all. The three-index slice keeps the pointer masking
// p[off:] compiles to off the load's dependency chain, which a dependent
// chase pays on every hop. Neither accessor is inlined into the core's
// dispatch: go1.24 costs them 128 and 121 against a budget of 80, 57 of
// it the outlined call itself.
//
//shsim:noalloc
func (m *Memory) Read64(addr uint64) (uint64, error) {
	a := addr - 8
	if i := a >> pageShift; i < uint64(len(m.pages)) {
		if p, off := m.pages[i], int(a&(pageSize-1))+8; off < len(p)-7 {
			return binary.LittleEndian.Uint64(p[off : off+8 : off+8]), nil
		}
	}
	return m.loadSlow(addr)
}

// Write64 stores the 8-byte little-endian word v at addr.
//
//shsim:noalloc
func (m *Memory) Write64(addr, v uint64) error {
	a := addr - 8
	if i := a >> pageShift; i < uint64(len(m.pages)) {
		if p, off := m.pages[i], int(a&(pageSize-1))+8; off < len(p)-7 {
			binary.LittleEndian.PutUint64(p[off:off+8:off+8], v)
			return nil
		}
	}
	return m.storeSlow(addr, v)
}

// HostPrefetch starts the host's load of the line backing addr. It has
// two callers: a simulated PREFETCH, so the prefetch hides the host
// miss of the later Read64 as it hides the simulated one, and a load or
// store that has missed L2 before, so its host miss overlaps the
// simulated cache walk ahead of its Read64 or Write64. It changes no
// simulated state and never faults; the page lookup is in the stub,
// which keeps this wrapper inside the inlining budget.
//
//shsim:noalloc inline
func (m *Memory) HostPrefetch(addr uint64) {
	hostPrefetch(m.pages, addr)
}

// loadSlow serves a load the fast path does not: a fault if it is out of
// bounds, otherwise the word assembled from its page and, when it
// straddles a page edge, the next one, with its unbacked bytes zero.
//
//go:noinline
func (m *Memory) loadSlow(addr uint64) (uint64, error) {
	if !m.InBounds(addr) {
		return 0, m.fault("load", addr)
	}
	var w [8]byte
	i, off := addr>>pageShift, addr&(pageSize-1)
	if p := m.page(i); off < uint64(len(p)) {
		copy(w[:], p[off:])
	}
	if off > pageSize-8 {
		copy(w[pageSize-off:], m.page(i+1))
	}
	return binary.LittleEndian.Uint64(w[:]), nil
}

// storeSlow serves a store the fast path does not: a fault if it is out
// of bounds, otherwise the word's page (and, when it straddles a page
// edge, the next one) backed to hold it, then the store.
//
//go:noinline
//shsim:noalloc
func (m *Memory) storeSlow(addr, v uint64) error {
	if !m.InBounds(addr) {
		return m.fault("store", addr)
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	i, off := addr>>pageShift, addr&(pageSize-1)
	// Backing a page is cold: stacks and data are Alloc'ed (backed), so
	// steady-state stores never get here.
	if k := copy(m.back(i, min(off+8, pageSize))[off:], w[:]); k < 8 {
		copy(m.back(i+1, uint64(8-k)), w[k:])
	}
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
