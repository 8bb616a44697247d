package cache

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// refHierarchy is a naive model of Hierarchy built from refCache levels,
// sharing no code with it. It routes each reference as the Hierarchy doc
// says: by kind to the L1I or the L1D; a reference spanning lines, line
// by line; each L1 miss to the L2, through the page table if there is
// one; and each L2 miss to the L3.
type refHierarchy struct {
	l1i, l1d, l2, l3 *refCache // l3 nil when absent
	pt               *vm.PageTable
	refs             trace.Counts
}

func newRefHierarchy(cfg HierarchyConfig, pt *vm.PageTable) *refHierarchy {
	h := &refHierarchy{
		l1i: newRefCache(cfg.L1I),
		l1d: newRefCache(cfg.L1D),
		l2:  newRefCache(cfg.L2),
		pt:  pt,
	}
	if cfg.HasL3() {
		h.l3 = newRefCache(cfg.L3)
	}
	return h
}

func (h *refHierarchy) record(r trace.Ref) {
	h.refs.ByKind[r.Kind]++
	l1 := h.l1d
	if r.Kind == trace.IFetch {
		l1 = h.l1i
	}
	write := r.Kind == trace.Store
	lineSize := l1.cfg.LineSize
	first, last := r.Addr/lineSize, r.Addr/lineSize
	if r.Size > 1 {
		end := r.Addr + uint64(r.Size-1)
		if end < r.Addr { // the span runs past the top of the address space
			end = 1<<64 - 1
		}
		last = end / lineSize
	}
	for ln := first; ; ln++ {
		// The first piece keeps the reference's own address; later
		// pieces start at their line.
		addr := max(r.Addr, ln*lineSize)
		if !l1.access(addr, write) {
			if h.pt != nil {
				addr = h.pt.Translate(addr)
			}
			if !h.l2.access(addr, write) && h.l3 != nil {
				h.l3.access(addr, write)
			}
		}
		if ln == last {
			return
		}
	}
}

// wideHierarchy builds a hierarchy configuration from sel, sixteen bits
// per level in the order L1I, L1D, L2, L3, one wideConfig selector per
// nibble (line size, line count, associativity, options), so every
// level can prefetch or classify. extra's low bit adds the L3; its next
// bit asks for a page table, whose size in bytes, 64 B to 4 KiB, its top
// bits pick (0 for none).
func wideHierarchy(sel uint64, extra uint8) (cfg HierarchyConfig, pageSize uint64) {
	level := func(name string, s uint64) Config {
		c := wideConfig(uint8(s&15), uint8(s>>4&15), uint8(s>>8&15), uint8(s>>12&15))
		c.Name = name
		return c
	}
	cfg = HierarchyConfig{
		L1I: level("L1I", sel),
		L1D: level("L1D", sel>>16),
		L2:  level("L2", sel>>32),
	}
	if extra&1 != 0 {
		cfg.L3 = level("L3", sel>>48)
	}
	if extra&2 != 0 {
		pageSize = 64 << (extra >> 2 % 7)
	}
	return cfg, pageSize
}

// checkHierarchyAgainstReference runs refs through a Hierarchy and the
// naive model built from cfg — each with its own page table of pageSize
// bytes and a seeded random placement, or none if pageSize is 0 — and
// returns the first disagreement in the reference tally, a level's
// counters or a level's resident lines. The first half of the stream goes
// through RecordBatch, the rest through Record.
func checkHierarchyAgainstReference(cfg HierarchyConfig, pageSize, seed uint64, refs []trace.Ref) error {
	var pt, refPT *vm.PageTable
	if pageSize != 0 {
		var err error
		if pt, err = vm.NewPageTable(pageSize, vm.RandomPolicy{Seed: seed}); err != nil {
			return err
		}
		refPT, _ = vm.NewPageTable(pageSize, vm.RandomPolicy{Seed: seed})
	}
	real, err := NewHierarchy(cfg, pt)
	if err != nil {
		return err
	}
	ref := newRefHierarchy(cfg, refPT)
	real.RecordBatch(refs[:len(refs)/2])
	for _, r := range refs[len(refs)/2:] {
		real.Record(r)
	}
	for _, r := range refs {
		ref.record(r)
	}
	if got, want := real.Refs(), ref.refs; got != want {
		return fmt.Errorf("refs %+v, model %+v", got, want)
	}
	type level struct {
		c *Cache
		m *refCache
	}
	levels := []level{{real.L1I(), ref.l1i}, {real.L1D(), ref.l1d}, {real.L2(), ref.l2}}
	if cfg.HasL3() {
		levels = append(levels, level{real.L3(), ref.l3})
	}
	for _, l := range levels {
		if got, want := l.c.Stats(), l.m.stats; got != want {
			return fmt.Errorf("%v: stats %+v, model %+v", l.c.cfg, got, want)
		}
		if got, want := l.c.ResidentLines(), l.m.residentLines(); !maps.Equal(got, want) {
			return fmt.Errorf("%v: resident %d lines, model %d", l.c.cfg, len(got), len(want))
		}
	}
	return nil
}

// refSizes are the reference sizes the differential streams draw from:
// zero, the machine word sizes, and spans of many lines.
var refSizes = [...]uint8{0, 1, 4, 8, 8, 16, 64, 255}

// Property: the hierarchy matches the naive model over random
// geometries and options at every level — prefetch, classification —
// with and without an L3 and a page table, on streams of mixed kinds and
// sizes whose addresses cover the whole 64-bit range, including spans
// past its top.
func TestHierarchyMatchesReference(t *testing.T) {
	f := func(seed int64, sel uint64, extra uint8) bool {
		cfg, pageSize := wideHierarchy(sel, extra)
		rng := rand.New(rand.NewSource(seed))
		sizes := []uint64{cfg.L1I.Size, cfg.L1D.Size, cfg.L2.Size, max(cfg.L3.Size, 1)}
		refs := make([]trace.Ref, 3000)
		for i := range refs {
			// Each reference falls within a few times one level's
			// capacity of a base, so every level hits, conflicts and evicts.
			span := int64(4 * sizes[rng.Intn(len(sizes))])
			refs[i] = trace.Ref{
				Addr: addrBases[rng.Intn(len(addrBases))] + uint64(rng.Int63n(span)),
				Kind: []trace.Kind{trace.IFetch, trace.Load, trace.Load, trace.Store}[rng.Intn(4)],
				Size: refSizes[rng.Intn(len(refSizes))],
			}
		}
		if err := checkHierarchyAgainstReference(cfg, pageSize, uint64(seed), refs); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzHierarchyMatchesReference checks Hierarchy against the naive model
// over fuzzed configurations and reference streams. sel and extra pick
// the levels and the page table as wideHierarchy does; salt seeds the
// page placement and is an eighth address base. Each
// reference takes four bytes: the first picks the kind (low two bits:
// fetch, load, load, store), an address base (next three bits) and a
// scale (top three bits) for the 16-bit offset in the next two; the last
// is the size.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add(uint64(0x0000_0000_0000_0000), uint8(0), uint64(0), []byte{0, 0, 0, 8, 1, 1, 0, 8, 3, 2, 0, 8, 3, 2, 0, 8})
	f.Add(uint64(0x8a56_8c46_0236_0236), uint8(3), uint64(1<<64-1), []byte{0xff, 0xff, 0xff, 0xff, 0x1f, 0xfc, 0xff, 0x10, 0x1d, 0xff, 0xff, 0x08})
	f.Add(uint64(0x2216_4a36_2a56_0a56), uint8(0x1a), uint64(1<<62), []byte{0x23, 0, 0, 8, 0x23, 4, 0, 8, 0x21, 0, 1, 64, 0x23, 0, 0, 8})
	f.Fuzz(func(t *testing.T, sel uint64, extra uint8, salt uint64, data []byte) {
		cfg, pageSize := wideHierarchy(sel, extra)
		bases := append(addrBases[:], salt) // eight bases
		var refs []trace.Ref
		for ; len(data) >= 4; data = data[4:] {
			b := data[0]
			offset := (uint64(data[1]) | uint64(data[2])<<8) << (b >> 5)
			refs = append(refs, trace.Ref{
				Addr: bases[b>>2&7] + offset,
				Kind: []trace.Kind{trace.IFetch, trace.Load, trace.Load, trace.Store}[b&3],
				Size: data[3],
			})
		}
		if err := checkHierarchyAgainstReference(cfg, pageSize, salt, refs); err != nil {
			t.Fatal(err)
		}
	})
}
