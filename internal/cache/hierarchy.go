package cache

import (
	"fmt"

	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// HierarchyConfig describes the cache hierarchy: split L1 instruction and
// data caches over a unified L2, matching both SGI systems in the paper,
// plus an optional L3 (zero Size = absent) for modelling modern machines.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	// L3 is an optional third level behind the L2; leave zero for the
	// paper's two-level systems.
	L3 Config
}

// HasL3 reports whether a third level is configured.
func (hc HierarchyConfig) HasL3() bool { return hc.L3.Size != 0 }

// Validate checks all level configurations.
func (hc HierarchyConfig) Validate() error {
	levels := []Config{hc.L1I, hc.L1D, hc.L2}
	if hc.HasL3() {
		levels = append(levels, hc.L3)
	}
	for _, c := range levels {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	return nil
}

// Hierarchy simulates the cache hierarchy against a reference stream.
// It implements trace.Recorder. If a page table is attached, the L2 is
// physically indexed: L1 caches see virtual addresses (they are small
// enough to be virtually indexed on the modelled machines) while L2 sees
// translated physical addresses, reproducing the virtual-memory effect the
// paper discusses in §2.2.
//
// Dirty evictions are counted per level (Stats.Writebacks) but writeback
// traffic does not generate accesses at the next level — DineroIII's
// demand-fetch accounting, which is what the paper's miss tables report.
type Hierarchy struct {
	l1i, l1d, l2 *Cache
	l3           *Cache // nil for two-level systems
	pt           *vm.PageTable
	tlb          *vm.TLB
	refs         trace.Counts
}

var _ trace.BatchRecorder = (*Hierarchy)(nil)

// NewHierarchy builds a hierarchy from cfg. pt may be nil for a fully
// virtually-indexed simulation (the paper's own DineroIII setup).
func NewHierarchy(cfg HierarchyConfig, pt *vm.PageTable) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{
		l1i: MustNew(cfg.L1I),
		l1d: MustNew(cfg.L1D),
		l2:  MustNew(cfg.L2),
		pt:  pt,
	}
	if cfg.HasL3() {
		h.l3 = MustNew(cfg.L3)
	}
	return h, nil
}

// MustNewHierarchy is NewHierarchy panicking on error, for fixed machine
// configurations.
func MustNewHierarchy(cfg HierarchyConfig, pt *vm.PageTable) *Hierarchy {
	h, err := NewHierarchy(cfg, pt)
	if err != nil {
		panic(err)
	}
	return h
}

// AttachTLB routes every data reference through a simulated data TLB;
// its hit/miss counters accumulate on the TLB itself.
func (h *Hierarchy) AttachTLB(t *vm.TLB) { h.tlb = t }

// Record implements trace.Recorder, presenting one reference to the
// hierarchy. References spanning a line boundary access each covered line.
// It is RecordBatch of one reference.
func (h *Hierarchy) Record(r trace.Ref) { h.RecordBatch([]trace.Ref{r}) }

// RecordBatch implements trace.BatchRecorder, consuming the chunk in
// order. The batch saves the interface dispatch per reference and keeps
// the simulator's code and branch history hot across the chunk instead
// of interleaving it with the trace generator's. The kind tally is kept
// in a local for the chunk; an out-of-range Kind panics on it before
// reaching any cache.
//
// Each reference goes to its first-level cache, line by line. Each
// first-level miss goes on to the second level, translated through the
// page table if one is attached, and each second-level miss on to the
// third. The loop body is the whole
// per-reference path, with no call of its own, so that a first-level
// hit on the set's MRU way, which the inlined mruHit resolves, costs no
// call at all.
func (h *Hierarchy) RecordBatch(refs []trace.Ref) {
	byKind := h.refs.ByKind
	for _, r := range refs {
		byKind[r.Kind]++
		l1, write := h.l1d, r.Kind == trace.Store
		if r.Kind == trace.IFetch { // instruction cache, no data TLB
			l1 = h.l1i
		} else if h.tlb != nil {
			h.tlb.Access(r.Addr)
		}
		ln := r.Addr >> l1.lineShift
		last := ln
		if lineSize := uint64(1) << l1.lineShift; r.Addr&(lineSize-1)+uint64(r.Size) > lineSize {
			// The reference covers bytes [Addr, end] across lines; a span
			// past the top of the address space ends at its last line.
			end := r.Addr + uint64(r.Size) - 1
			if end < r.Addr {
				end = ^uint64(0)
			}
			last = end >> l1.lineShift
		}
		for addr := r.Addr; ; {
			if !l1.mruHit(ln, write) && !l1.access(ln, write) {
				pa := addr
				if h.pt != nil {
					pa = h.pt.Translate(addr)
				}
				if !h.l2.access(pa>>h.l2.lineShift, write) && h.l3 != nil {
					h.l3.access(pa>>h.l3.lineShift, write)
				}
			}
			if ln == last {
				break
			}
			ln++
			addr = ln << l1.lineShift
		}
	}
	h.refs.ByKind = byKind
}

// L1I, L1D, and L2 expose the individual levels.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L1D returns the first-level data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the unified second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// L3 returns the third-level cache, or nil on two-level systems.
func (h *Hierarchy) L3() *Cache { return h.l3 }

// Refs returns the reference tally observed so far.
func (h *Hierarchy) Refs() trace.Counts { return h.refs }

// Summary condenses the hierarchy counters into the rows the paper's miss
// tables report.
type Summary struct {
	IFetches uint64
	DataRefs uint64
	// L1Misses is combined I+D first-level misses, as in the paper's
	// "L1 misses" row.
	L1Misses uint64
	// L1Rate is L1 misses per hundred data references (the paper's rate
	// columns divide by data references).
	L1Rate float64
	L2     Stats
	// L2Rate is L2 misses per hundred data references.
	L2Rate float64
	// L3 is the optional third level's counters (zero when absent).
	L3 Stats
}

// Summarize computes the table rows from the current counters.
func (h *Hierarchy) Summarize() Summary {
	s := Summary{
		IFetches: h.refs.IFetches(),
		DataRefs: h.refs.DataRefs(),
		L1Misses: h.l1i.Stats().Misses + h.l1d.Stats().Misses,
		L2:       h.l2.Stats(),
	}
	if s.DataRefs > 0 {
		s.L1Rate = 100 * float64(s.L1Misses) / float64(s.DataRefs)
		s.L2Rate = 100 * float64(s.L2.Misses) / float64(s.DataRefs)
	}
	if h.l3 != nil {
		s.L3 = h.l3.Stats()
	}
	return s
}

// Merge accumulates other's counters into h: per-level Stats and the
// reference tally. It is stats-only — cache contents (residency, recency,
// dirty bits) are not merged, so a merged hierarchy reports combined
// counters but must not be used to continue simulation. Merging a
// freshly-reset hierarchy is a no-op. The two hierarchies must have
// identical level configurations.
func (h *Hierarchy) Merge(other *Hierarchy) error {
	pairs := [][2]*Cache{{h.l1i, other.l1i}, {h.l1d, other.l1d}, {h.l2, other.l2}}
	if (h.l3 == nil) != (other.l3 == nil) {
		return fmt.Errorf("cache: Merge: L3 present on one hierarchy only")
	}
	if h.l3 != nil {
		pairs = append(pairs, [2]*Cache{h.l3, other.l3})
	}
	for _, p := range pairs {
		if p[0].cfg != p[1].cfg {
			return fmt.Errorf("cache: Merge: %s configurations differ (%v vs %v)", p[0].cfg.Name, p[0].cfg, p[1].cfg)
		}
	}
	for _, p := range pairs {
		p[0].stats.Add(p[1].stats)
	}
	h.refs.Add(other.refs)
	return nil
}

// SetRefs overwrites the hierarchy's reference tally. Sharded simulation
// uses it after Merge: shards observe split reference pieces, so the
// summed shard tallies overcount spanning references, and the router's
// tally of original references is authoritative.
func (h *Hierarchy) SetRefs(c trace.Counts) { h.refs = c }

// Reset clears all levels and counters.
func (h *Hierarchy) Reset() {
	h.l1i.Reset()
	h.l1d.Reset()
	h.l2.Reset()
	if h.l3 != nil {
		h.l3.Reset()
	}
	h.refs = trace.Counts{}
}
