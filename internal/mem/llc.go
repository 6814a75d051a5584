package mem

import "fmt"

// This file is the shared half of the PR-6 private/shared split: the
// banked last-level cache that every core of a many-core machine
// contends for. A Hierarchy owns the private L1/L2 and the MSHR file as
// before; when a core is part of a machine, its hierarchy is attached to
// an LLCView and the L3 probes route here instead of the private l3.
//
// # Quantum discipline (determinism contract)
//
// The LLC is shared across cores, so it follows the bound-weave
// discipline of the cycle-quantum kernel (internal/machine):
//
//   - During a quantum, views only READ committed bank tag state
//     (containsTag — no recency touch, no install) plus the per-bank
//     contention figures frozen at the last barrier. Every access is
//     appended to the view's private log.
//   - At the quantum barrier, Commit applies the logs in fixed
//     core-index order: installs update bank tags/LRU, per-bank load
//     and shared-MSHR pressure are tallied, and the next quantum's
//     queue penalties are derived from this quantum's committed load.
//
// Tag state therefore changes only between quanta, at the barrier, and
// the outcome is a pure function of the seed: cross-core interactions
// resolve in core-index order, never in the order cores happened to run
// within a quantum.
//
// # Contention model
//
// Latency is LatL3 on a tag hit and LatDRAM on a miss, plus two
// feedback penalties derived from the PREVIOUS quantum's committed
// traffic (using the current quantum's would make latency depend on
// in-quantum ordering across cores):
//
//   - bank queueing: a bank that committed more than BankPorts accesses
//     last quantum adds QueuePenalty cycles per access per BankPorts of
//     oversubscription this quantum;
//   - shared MSHRs: misses beyond MSHRs last quantum add the same
//     per-access penalty to DRAM-bound accesses this quantum.
//
// One quantum of lag is the standard lax-synchronization trade
// (ZSim-style bound-weave): contention affects timing with a bounded
// delay, never correctness, and stays deterministic.

// LLCConfig sizes the shared last-level cache and its contention model.
type LLCConfig struct {
	// Banks is the number of independently ported banks; must be a
	// power of two. Consecutive lines interleave across banks.
	Banks int
	// Size is the total capacity in bytes across all banks.
	Size uint64
	// Ways is the associativity of each bank, in [1, 16] (MaxWays).
	Ways int
	// LineSize must match the private hierarchies' line size.
	LineSize uint64

	// LatL3 and LatDRAM are the uncontended service latencies.
	LatL3   uint64
	LatDRAM uint64

	// BankPorts is the number of accesses one bank can absorb per
	// quantum before queueing sets in. Zero disables bank queueing.
	BankPorts uint64
	// QueuePenalty is the extra latency per access per BankPorts (or
	// MSHRs) of oversubscription observed in the previous quantum.
	QueuePenalty uint64
	// MSHRs caps the misses the shared miss-handling registers absorb
	// per quantum before DRAM-bound accesses queue. Zero disables the
	// MSHR pressure model.
	MSHRs uint64
}

// DefaultLLCConfig returns a shared LLC scaled for the given core
// count: 256 KiB of capacity per core (matching the scaled private L3
// of the reference machine), rounded up to a power-of-two core count so
// bank sets stay powers of two.
func DefaultLLCConfig(cores int) LLCConfig {
	if cores < 1 {
		cores = 1
	}
	p := 1
	for p < cores {
		p <<= 1
	}
	return LLCConfig{
		Banks:        8,
		Size:         uint64(p) * (256 << 10),
		Ways:         16,
		LineSize:     64,
		LatL3:        50,
		LatDRAM:      300,
		BankPorts:    256,
		QueuePenalty: 8,
		MSHRs:        64,
	}
}

// Validate checks the configuration for structural problems and for
// latencies or a queue penalty above MaxCycles.
func (c LLCConfig) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("mem: LLC bank count %d must be a positive power of two", c.Banks)
	}
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("mem: LLC line size %d must be a power of two", c.LineSize)
	}
	if err := checkWays("LLC", c.Ways); err != nil {
		return err
	}
	bankBytes := c.Size / uint64(c.Banks)
	sets := bankBytes / c.LineSize / uint64(c.Ways)
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("mem: LLC bank set count %d must be a positive power of two (size %d, banks %d, line %d, ways %d)",
			sets, c.Size, c.Banks, c.LineSize, c.Ways)
	}
	if c.LatL3 > c.LatDRAM {
		return fmt.Errorf("mem: LLC LatL3 %d must not exceed LatDRAM %d", c.LatL3, c.LatDRAM)
	}
	for _, f := range [...]struct {
		name string
		v    uint64
	}{{"LLC LatL3", c.LatL3}, {"LLC LatDRAM", c.LatDRAM}, {"LLC QueuePenalty", c.QueuePenalty}} {
		if err := CheckCycles("mem", f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// LLCStats counts shared-LLC activity, committed in core-index order so
// the totals are deterministic.
type LLCStats struct {
	// Hits and Misses count probes by outcome (demand and prefetch).
	Hits, Misses uint64
	// Queued counts accesses that paid a contention penalty;
	// QueueCycles is the total penalty added.
	Queued      uint64
	QueueCycles uint64
	// PeakBankLoad is the highest per-bank committed load of any quantum.
	PeakBankLoad uint64
	// Quanta counts commits.
	Quanta uint64
}

// asidLineShift positions the core tag above every line-index bit.
// Per-core memories are at most 2^44 bytes (enforced by the machine
// layer), so line indexes fit in 40 bits at any line size ≥ 16 B.
const asidLineShift = 40

// SharedLLC is the banked shared last-level cache. Construct with
// NewSharedLLC, hand each core a view via NewView, and call Commit at
// every quantum barrier, after every core has run the quantum's probes.
type SharedLLC struct {
	cfg       LLCConfig
	banks     []*cache
	bankMask  uint64
	bankShift uint
	lineShift uint

	// prevLoad/curLoad are per-bank committed access counts; prev is
	// frozen for reading during a quantum, cur accumulates at commit.
	prevLoad []uint64
	curLoad  []uint64
	// bankExtra is the per-access queue penalty per bank for the
	// current quantum, derived from prevLoad at the last commit.
	bankExtra []uint64
	// dramExtra is the shared-MSHR penalty for DRAM-bound accesses this
	// quantum, derived from last quantum's committed miss count.
	dramExtra  uint64
	prevMisses uint64

	views []*LLCView

	Stats LLCStats
}

// NewSharedLLC builds the shared LLC.
func NewSharedLLC(cfg LLCConfig) (*SharedLLC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &SharedLLC{
		cfg:      cfg,
		banks:    make([]*cache, cfg.Banks),
		bankMask: uint64(cfg.Banks) - 1,
	}
	for i := range s.banks {
		s.banks[i] = newCache(cfg.Size/uint64(cfg.Banks), cfg.LineSize, cfg.Ways)
	}
	s.lineShift = s.banks[0].lineBits
	for b := cfg.Banks; b > 1; b >>= 1 {
		s.bankShift++
	}
	s.prevLoad = make([]uint64, cfg.Banks)
	s.curLoad = make([]uint64, cfg.Banks)
	s.bankExtra = make([]uint64, cfg.Banks)
	return s, nil
}

// Config returns the LLC configuration.
//
//shsim:llc-read
func (s *SharedLLC) Config() LLCConfig { return s.cfg }

// NewView registers a per-core view. The view's position in the commit
// order is its registration order, so cores must register views in
// core-index order. Setup-only: reshapes shared state, so it is off
// limits once quanta run.
//
//shsim:llc-mutate
func (s *SharedLLC) NewView(coreID int) *LLCView {
	v := &LLCView{llc: s, asid: uint64(coreID+1) << asidLineShift}
	s.views = append(s.views, v)
	return v
}

// Commit applies every view's access log to the bank tag state in
// registration (core-index) order, merges per-view statistics, and
// derives the next quantum's contention penalties from the committed
// load. Call exactly once per quantum barrier.
//
//shsim:llc-mutate
func (s *SharedLLC) Commit() {
	for i := range s.curLoad {
		s.curLoad[i] = 0
	}
	var misses uint64
	for _, v := range s.views {
		for _, key := range v.log {
			bank := key & s.bankMask
			s.banks[bank].access((key>>s.bankShift)+1, false)
			s.curLoad[bank]++
		}
		v.log = v.log[:0]
		s.Stats.Hits += v.qHits
		s.Stats.Misses += v.qMisses
		s.Stats.Queued += v.qQueued
		s.Stats.QueueCycles += v.qQueueCycles
		misses += v.qMisses
		v.qHits, v.qMisses, v.qQueued, v.qQueueCycles = 0, 0, 0, 0
	}
	for b, load := range s.curLoad {
		if load > s.Stats.PeakBankLoad {
			s.Stats.PeakBankLoad = load
		}
		s.bankExtra[b] = 0
		if s.cfg.BankPorts > 0 && load > s.cfg.BankPorts {
			s.bankExtra[b] = s.cfg.QueuePenalty * ((load - s.cfg.BankPorts) / s.cfg.BankPorts)
			if s.bankExtra[b] == 0 {
				s.bankExtra[b] = s.cfg.QueuePenalty
			}
		}
	}
	s.dramExtra = 0
	if s.cfg.MSHRs > 0 && misses > s.cfg.MSHRs {
		s.dramExtra = s.cfg.QueuePenalty * ((misses - s.cfg.MSHRs) / s.cfg.MSHRs)
		if s.dramExtra == 0 {
			s.dramExtra = s.cfg.QueuePenalty
		}
	}
	s.prevLoad, s.curLoad = s.curLoad, s.prevLoad
	s.prevMisses = misses
	s.Stats.Quanta++
}

// LLCView is one core's window onto the shared LLC: a read-only probe
// of the committed tag state plus a private access log replayed at the
// barrier. Views are not safe for concurrent use; each belongs to
// exactly one core.
type LLCView struct {
	llc *SharedLLC
	// asid disambiguates per-core address spaces: each core runs over
	// its own private Memory, so line indexes are tagged with the core
	// to prevent cross-core false hits while still contending for the
	// same sets and banks.
	asid uint64

	// log holds the bank-keyed lines touched this quantum, in access
	// order. Reset (capacity retained) at every commit.
	log []uint64

	// Per-quantum counters, merged into SharedLLC.Stats at commit in
	// core-index order.
	qHits, qMisses, qQueued, qQueueCycles uint64
}

// key maps a byte line address into the banked key space: low bits pick
// the bank, the rest (with the core tag on top) form the in-bank line.
//
//shsim:llc-read
//shsim:noalloc inline
func (v *LLCView) key(ln uint64) uint64 {
	return v.asid | (ln >> v.llc.lineShift)
}

// Demand probes the committed LLC state for the line containing byte
// line address ln, logs the access for commit, and returns the serving
// level (LevelL3 or LevelDRAM) plus the total latency including any
// contention penalty carried over from the previous quantum. Probes
// committed tag state and writes only the view's core-private log.
//
//shsim:llc-read
//shsim:noalloc
func (v *LLCView) Demand(ln uint64) (Level, uint64) {
	s := v.llc
	key := v.key(ln)
	bank := key & s.bankMask
	extra := s.bankExtra[bank]
	var lvl Level
	var lat uint64
	if s.banks[bank].containsTag((key >> s.bankShift) + 1) {
		lvl, lat = LevelL3, s.cfg.LatL3
		v.qHits++
	} else {
		lvl, lat = LevelDRAM, s.cfg.LatDRAM
		extra += s.dramExtra
		v.qMisses++
	}
	if extra > 0 {
		v.qQueued++
		v.qQueueCycles += extra
	}
	v.log = append(v.log, key)
	return lvl, lat + extra
}

// Fill logs an install (a private-level fill landing, a pre-warm touch)
// without probing: the line enters the LLC at the next commit and
// counts toward bank load. Appends to the core-private log only.
//
//shsim:llc-read
//shsim:noalloc inline
func (v *LLCView) Fill(ln uint64) {
	v.log = append(v.log, v.key(ln))
}

// Contains reports whether the committed LLC state holds the line. It
// neither logs nor perturbs recency — the §4.1 presence-probe contract.
//
//shsim:llc-read
//shsim:noalloc inline
func (v *LLCView) Contains(ln uint64) bool {
	s := v.llc
	key := v.key(ln)
	return s.banks[key&s.bankMask].containsTag((key >> s.bankShift) + 1)
}
