// Package vlp implements the paper's contribution: the Variable Length
// Path branch predictor (§3) for both conditional and indirect branches,
// together with the fixed length path (FLP) special case, the profiled
// per-branch hash-function selection, the Hash Function Number Table
// pipelining model (§4.3), and the extensions sketched in §3.4 and §6.
package vlp

import (
	"fmt"

	"repro/internal/arch"
)

// DefaultMaxPath is the Target History Buffer depth used throughout the
// paper's experiments: "In our experiments, we used a THB that could hold
// at most 32 target addresses so there were 32 hash functions" (§3.1).
const DefaultMaxPath = 32

// HashSet maintains the Target History Buffer (THB) and the N path hash
// indices I_1..I_N over it (§3.1, Figure 2).
//
// Each target address is compressed to k bits by discarding high-order
// bits (§3.1); the index of hash function HF_X is the XOR of the X most
// recent compressed targets, each rotated left (as a k-bit value) by its
// depth: T_1 by 0 bits, T_2 by 1 bit, and so on (§3.3), so that the same
// set of targets in a different order yields a different index.
//
// Indices are maintained incrementally with the paper's "partial sum"
// registers (§4.1): the register of HF_X holds I_{X-1}, and inserting a
// new target t updates I_X to rot1(I_{X-1}) XOR t. The THB ring is kept as
// well so DirectIndex can recompute any index from scratch; the test suite
// verifies the two always agree.
type HashSet struct {
	k     uint
	n     int
	live  int // partial-sum registers maintained by Insert (<= n)
	mask  uint32
	idx   []uint32 // idx[x-1] = I_x
	thb   []uint32 // ring of compressed targets
	head  int      // position of most recent target in thb
	count int      // targets inserted, saturating at n
}

// NewHashSet returns a HashSet producing k-bit indices over paths of up to
// n targets. k must be in 1..32 and n at least 1.
func NewHashSet(k uint, n int) (*HashSet, error) {
	if k < 1 || k > 32 {
		return nil, fmt.Errorf("vlp: index width %d out of range 1..32", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("vlp: path depth %d out of range", n)
	}
	return &HashSet{
		k:    k,
		n:    n,
		live: n,
		mask: uint32(1<<k - 1),
		idx:  make([]uint32, n),
		thb:  make([]uint32, n),
		head: n - 1,
	}, nil
}

// K returns the index width in bits.
func (h *HashSet) K() uint { return h.k }

// MaxPath returns the THB depth N.
func (h *HashSet) MaxPath() int { return h.n }

// SetMaxNeeded bounds the bank of partial-sum registers Insert maintains
// to the first m, for callers that know they will never ask for an index
// deeper than m (a Fixed{L:8} selector needs 8 registers, not 32). Values
// outside 1..MaxPath mean "unknown" and keep the full bank. The THB ring
// is always maintained in full, so DirectIndex and Target still work at
// any depth; only Index is restricted to lengths within the bound.
func (h *HashSet) SetMaxNeeded(m int) {
	if m < 1 || m > h.n {
		m = h.n
	}
	h.live = m
}

// MaxNeeded returns the number of partial-sum registers Insert maintains.
func (h *HashSet) MaxNeeded() int { return h.live }

// compress reduces a target address to k bits. The always-zero low two PC
// bits are discarded first, then the high-order bits, the paper's "simply
// discarding the higher order bits".
func (h *HashSet) compress(a arch.Addr) uint32 {
	return uint32(uint64(a)>>2) & h.mask
}

// rotl rotates v left by r bits within the k-bit index width.
func (h *HashSet) rotl(v uint32, r uint) uint32 {
	r %= h.k
	if r == 0 {
		return v & h.mask
	}
	return (v<<r | v>>(h.k-r)) & h.mask
}

// rot1 is rotl(v, 1) without the modulo and the zero-rotation branch: the
// incremental update rotates by exactly one bit per stage, and for k == 1
// the plain shift form already reduces to the identity, so the hot loop
// needs neither the `%` nor the branch.
func (h *HashSet) rot1(v uint32) uint32 {
	return (v<<1 | v>>(h.k-1)) & h.mask
}

// Insert records a new branch target into the THB, updating every index
// incrementally (§4.1). Callers insert the targets of conditional and
// indirect branches only (§3.2); unconditional branches and returns carry
// no path information.
func (h *HashSet) Insert(target arch.Addr) {
	h.InsertCompressed(h.compress(target))
}

// Index returns I_length, the predictor-table index produced by hash
// function HF_length. length must be in 1..MaxNeeded (which is MaxPath
// unless the bank was bounded with SetMaxNeeded).
func (h *HashSet) Index(length int) uint32 {
	if length < 1 || length > h.live {
		panic(fmt.Sprintf("vlp: path length %d out of range 1..%d (bank bounded to %d of %d registers)",
			length, h.live, h.live, h.n))
	}
	return h.idx[length-1]
}

// Target returns the depth-th most recent compressed target in the THB
// (depth 0 is the most recent), or 0 if fewer targets have been inserted —
// matching the zero-initialised hardware registers.
func (h *HashSet) Target(depth int) uint32 {
	if depth < 0 || depth >= h.n || depth >= h.count {
		return 0
	}
	return h.thb[(h.head-depth+h.n)%h.n]
}

// DirectIndex recomputes I_length from the THB contents using the
// straightforward multi-stage XOR tree of §4.1, without the partial-sum
// registers. It exists to validate the incremental implementation and to
// document the reference semantics.
func (h *HashSet) DirectIndex(length int) uint32 {
	if length < 1 || length > h.n {
		panic(fmt.Sprintf("vlp: path length %d out of range 1..%d", length, h.n))
	}
	var v uint32
	for j := 0; j < length; j++ {
		v ^= h.rotl(h.Target(j), uint(j))
	}
	return v
}

// InsertCompressed performs the incremental index update for a target that
// is already compressed to k bits — used when re-playing targets captured
// from the THB ring (the history-stack combine variant re-inserts the last
// few callee targets on top of the restored caller history).
//
// Only the first MaxNeeded partial-sum registers are updated: I_X =
// rot1(I_{X-1}) XOR t, evaluated from deep to shallow so each update reads
// the previous insertion's value. Registers past the bound go stale, which
// is fine because Index refuses to read them.
func (h *HashSet) InsertCompressed(t uint32) {
	t &= h.mask
	idx := h.idx[:h.live]
	for x := len(idx) - 1; x >= 1; x-- {
		idx[x] = h.rot1(idx[x-1]) ^ t
	}
	idx[0] = t
	h.head++
	if h.head == h.n {
		h.head = 0
	}
	h.thb[h.head] = t
	if h.count < h.n {
		h.count++
	}
}

// Snapshot returns a copy of the partial-sum registers, used by the
// history-stack extension (§6) to save predictor history across calls.
func (h *HashSet) Snapshot() []uint32 {
	s := make([]uint32, h.n)
	copy(s, h.idx)
	return s
}

// Restore overwrites the partial-sum registers with a snapshot taken
// earlier. The THB ring is left alone: DirectIndex reflects the true
// recent path while Index reflects the restored prediction history, which
// is exactly the divergence the history-stack extension introduces.
func (h *HashSet) Restore(s []uint32) {
	if len(s) != h.n {
		panic(fmt.Sprintf("vlp: restoring snapshot of depth %d into HashSet of depth %d", len(s), h.n))
	}
	copy(h.idx, s)
}
