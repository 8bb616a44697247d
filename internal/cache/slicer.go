package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"threadsched/internal/trace"
)

// Address-sliced simulation support. A set-associative cache partitions
// the address space by set index, and LRU replacement makes each
// set's state a pure function of the subsequence of references that map
// to it. Two references can therefore interact only when they share a set
// at some level of the hierarchy, and a partition of the address space
// that never separates such a pair can be simulated as independent shards
// — each consuming its own references in global order — with merged
// counters bit-identical to the serial simulation.
//
// SliceRouter computes that partition. For a level with line size 2^l and
// 2^s sets, the set index is address bits [l, l+s); two addresses share a
// set at that level iff they agree on those bits. "May interact at some
// level" is the union of those relations, and its transitive closure is
// agreement on the bits every level indexes with — the intersection
// [L, H) of the per-level ranges, L = max(l_i), H = min(l_i + s_i). Those
// common bits are the routing class: addresses in different classes share
// a set at no level, so distributing classes across slices never splits
// an interacting pair.

// ErrUnsliceable reports a hierarchy configuration whose simulation is
// not address-separable: some feature couples state across sets (global
// classification stacks, cross-line prefetch), or the levels' set-index
// bit ranges have an empty intersection so every pair of addresses may
// interact at some level.
var ErrUnsliceable = errors.New("cache: hierarchy is not address-sliceable")

// SliceRouter routes references to slices by address class, splitting
// references that span class-granule boundaries so every emitted piece
// lies in exactly one class.
type SliceRouter struct {
	shift   uint   // L: low bit of the common set-index range
	mask    uint64 // classes-1, applied after the shift
	classes int
	slices  int
}

// NewSliceRouter builds a router for cfg distributing classes over up to
// slices slices (clamped to the class count; slices must be >= 1). It
// returns an error wrapping ErrUnsliceable when the configuration's
// simulation is not address-separable. The caller must not attach a page
// table or TLB to the sliced hierarchies: translation invalidates the
// bit-range analysis, and a TLB is a global LRU shared by all addresses.
func NewSliceRouter(cfg HierarchyConfig, slices int) (*SliceRouter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if slices < 1 {
		return nil, fmt.Errorf("cache: NewSliceRouter: %d slices", slices)
	}
	levels := []Config{cfg.L1I, cfg.L1D, cfg.L2}
	if cfg.HasL3() {
		levels = append(levels, cfg.L3)
	}
	lo, hi := uint(0), uint(64)
	for _, c := range levels {
		switch {
		case c.Classify:
			// The shadow fully-associative model is one global LRU stack:
			// every reference reorders it, so any two references interact.
			return nil, fmt.Errorf("%w: %s classifies misses (global shadow stack)", ErrUnsliceable, c.Name)
		case c.Prefetch:
			// A demand miss on line n installs line n+1, which may belong
			// to a different class.
			return nil, fmt.Errorf("%w: %s prefetches across lines", ErrUnsliceable, c.Name)
		}
		l := uint(bits.TrailingZeros64(c.LineSize))
		s := uint(bits.TrailingZeros64(c.Sets()))
		if l > lo {
			lo = l
		}
		if l+s < hi {
			hi = l + s
		}
	}
	if hi <= lo {
		return nil, fmt.Errorf("%w: set-index bit ranges have an empty intersection", ErrUnsliceable)
	}
	classes := 1 << (hi - lo)
	if slices > classes {
		slices = classes
	}
	return &SliceRouter{shift: lo, mask: uint64(classes - 1), classes: classes, slices: slices}, nil
}

// Classes returns the number of distinct address classes; slices beyond
// this count can never receive a reference.
func (s *SliceRouter) Classes() int { return s.classes }

// Slices returns the effective slice count (the requested count clamped
// to Classes).
func (s *SliceRouter) Slices() int { return s.slices }

// Slice returns the slice index for an address. Addresses in the same
// class always land in the same slice.
func (s *SliceRouter) Slice(addr uint64) int {
	return int((addr >> s.shift & s.mask) % uint64(s.slices))
}

// Scatter routes refs in order: each reference is tallied once into
// tally, split at class-granule (coarsest set-index granule, 2^L byte)
// boundaries if it spans them, and each piece emitted to its slice. The
// granule is a multiple of every level's line size, so splitting there
// preserves the exact per-line access sequence the serial simulator
// performs — piece boundaries coincide with line boundaries at every
// level. A reference whose address range wraps the address space ends
// at its top byte, matching the serial simulator.
func (s *SliceRouter) Scatter(refs []trace.Ref, tally *trace.Counts, emit func(slice int, r trace.Ref)) {
	granule := uint64(1) << s.shift
	for i := range refs {
		r := refs[i]
		tally.ByKind[r.Kind]++
		size := uint64(r.Size)
		if size == 0 {
			size = 1
		}
		end := r.Addr + size - 1
		if end < r.Addr {
			// As in the hierarchy, the span ends at the top of the
			// address space.
			end = ^uint64(0)
			r.Size = uint8(end - r.Addr + 1)
		}
		if r.Addr>>s.shift == end>>s.shift {
			emit(s.Slice(r.Addr), r)
			continue
		}
		// Spanning reference: one piece per granule block. Each piece's
		// size fits uint8 because the original Size did.
		addr := r.Addr
		for addr <= end && addr >= r.Addr {
			blkEnd := (addr | (granule - 1))
			if blkEnd > end {
				blkEnd = end
			}
			emit(s.Slice(addr), trace.Ref{Kind: r.Kind, Addr: addr, Size: uint8(blkEnd - addr + 1)})
			addr = blkEnd + 1
		}
	}
}
