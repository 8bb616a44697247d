package cache

import (
	"errors"
	"math"
	"testing"

	"threadsched/internal/trace"
)

// sliceTestConfig is an address-sliceable three-level geometry:
// L1I [5,10), L1D [5,9), L2 [7,15) — intersection [7,9), 4 classes.
func sliceTestConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I: Config{Name: "L1I", Size: 1024, LineSize: 32, Assoc: 1},
		L1D: Config{Name: "L1D", Size: 1024, LineSize: 32, Assoc: 2},
		L2:  Config{Name: "L2", Size: 131072, LineSize: 128, Assoc: 4},
	}
}

func TestSliceRouterGeometry(t *testing.T) {
	r, err := NewSliceRouter(sliceTestConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Classes() != 4 {
		t.Errorf("Classes() = %d, want 4 (bits [7,9))", r.Classes())
	}
	if r.Slices() != 4 {
		t.Errorf("Slices() = %d, want 4 (requested 8, clamped to classes)", r.Slices())
	}
	// Addresses differing only below bit 7 or at/above bit 9 share a class.
	base := uint64(0x1000)
	for _, same := range []uint64{base + 1, base + 127, base + 1<<9, base + 1<<20} {
		if r.Slice(same) != r.Slice(base) {
			t.Errorf("Slice(%#x) = %d, want %d (same class as %#x)", same, r.Slice(same), r.Slice(base), base)
		}
	}
	if r.Slice(base+1<<7) == r.Slice(base) {
		t.Errorf("Slice(%#x) shares a slice with %#x despite differing class bits", base+1<<7, base)
	}
}

func TestSliceRouterRejectsCoupledState(t *testing.T) {
	classify := sliceTestConfig()
	classify.L2.Classify = true
	prefetch := sliceTestConfig()
	prefetch.L2.Prefetch = true
	fullAssoc := sliceTestConfig()
	fullAssoc.L2.Assoc = 0
	disjoint := sliceTestConfig()
	// L1D sets shrink until its range [5,6) misses L2's [7,15).
	disjoint.L1D = Config{Name: "L1D", Size: 128, LineSize: 32, Assoc: 2}

	for name, cfg := range map[string]HierarchyConfig{
		"classify":         classify,
		"prefetch":         prefetch,
		"fully assoc":      fullAssoc,
		"disjoint bit set": disjoint,
	} {
		if _, err := NewSliceRouter(cfg, 2); !errors.Is(err, ErrUnsliceable) {
			t.Errorf("%s: err = %v, want ErrUnsliceable", name, err)
		}
	}
	if _, err := NewSliceRouter(sliceTestConfig(), 0); err == nil {
		t.Error("0 slices accepted")
	}
}

// TestSliceRouterScatterSplit: spanning references split at the coarsest
// set-index granule into contiguous pieces, each inside one granule
// block; non-spanning references pass through untouched; a reference
// running past the top of the address space is clamped there, as the
// serial hierarchy clamps it.
func TestSliceRouterScatterSplit(t *testing.T) {
	r, err := NewSliceRouter(sliceTestConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	const granule = 128 // 1 << 7
	refs := []trace.Ref{
		{Kind: trace.Load, Addr: 0x1008, Size: 8},             // within one granule
		{Kind: trace.Store, Addr: 2*granule - 4, Size: 8},     // spans a granule boundary
		{Kind: trace.IFetch, Addr: 5*granule - 1, Size: 250},  // spans two boundaries
		{Kind: trace.Load, Addr: math.MaxUint64 - 2, Size: 8}, // wraps: ends at the top byte
		{Kind: trace.Load, Addr: 0x40, Size: 0},               // zero size = one byte
	}
	var tally trace.Counts
	type emission struct {
		slice int
		r     trace.Ref
	}
	var got []emission
	r.Scatter(refs, &tally, func(slice int, rr trace.Ref) {
		got = append(got, emission{slice, rr})
	})

	want := trace.Counts{}
	want.RecordBatch(refs)
	if tally != want {
		t.Errorf("tally = %+v, want %+v (originals counted once each)", tally, want)
	}

	// Reassemble: pieces of each original must be contiguous, granule-
	// confined, and correctly routed.
	checkPieces := func(orig trace.Ref, pieces []emission) {
		t.Helper()
		size := uint64(orig.Size)
		if size == 0 {
			size = 1
		}
		addr := orig.Addr
		var covered uint64
		for _, p := range pieces {
			if p.r.Kind != orig.Kind {
				t.Fatalf("piece kind %v, want %v", p.r.Kind, orig.Kind)
			}
			if p.r.Addr != addr {
				t.Fatalf("piece at %#x, want contiguous from %#x", p.r.Addr, addr)
			}
			psize := uint64(p.r.Size)
			if p.r.Size == 0 {
				psize = 1
			}
			if p.r.Addr/granule != (p.r.Addr+psize-1)/granule {
				t.Fatalf("piece %+v crosses a granule boundary", p.r)
			}
			if p.slice != r.Slice(p.r.Addr) {
				t.Fatalf("piece %+v routed to slice %d, want %d", p.r, p.slice, r.Slice(p.r.Addr))
			}
			addr += psize
			covered += psize
		}
		if covered != size {
			t.Fatalf("pieces cover %d bytes of %+v, want %d", covered, orig, size)
		}
	}
	checkPieces(refs[0], got[0:1])
	checkPieces(refs[1], got[1:3])
	checkPieces(refs[2], got[3:6])
	// refs[3] wraps: one piece, its last three bytes clamped away.
	top := trace.Ref{Kind: trace.Load, Addr: math.MaxUint64 - 2, Size: 3}
	checkPieces(top, got[6:7])
	// refs[4] is the final single piece.
	checkPieces(refs[4], got[7:])
	if len(got) != 8 {
		t.Fatalf("scatter emitted %d pieces, want 8", len(got))
	}
}

// TestSliceScatterDifferential: scattering a reference stream across
// shard hierarchies and merging must reproduce the serial hierarchy's
// counters exactly. This is the unit-level statement of the set-partition
// argument, independent of the trace file format.
func TestSliceScatterDifferential(t *testing.T) {
	cfg := sliceTestConfig()
	refs := make([]trace.Ref, 0, 60000)
	rng := uint64(7)
	for i := 0; i < 60000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		kind := trace.Kind(rng >> 62 % 3)
		// Small address span so sets collide and evict; occasional large
		// sizes so references span granules.
		addr := rng >> 40 % (1 << 18)
		size := uint8(8)
		if rng%17 == 0 {
			size = uint8(rng>>8) | 1
		}
		refs = append(refs, trace.Ref{Kind: kind, Addr: addr, Size: size})
	}

	serial := MustNewHierarchy(cfg, nil)
	serial.RecordBatch(refs)

	for _, slices := range []int{2, 3, 4} {
		r, err := NewSliceRouter(cfg, slices)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([]*Hierarchy, r.Slices())
		for i := range shards {
			shards[i] = MustNewHierarchy(cfg, nil)
		}
		var tally trace.Counts
		r.Scatter(refs, &tally, func(slice int, rr trace.Ref) {
			shards[slice].Record(rr)
		})
		merged := MustNewHierarchy(cfg, nil)
		for _, sh := range shards {
			if err := merged.Merge(sh); err != nil {
				t.Fatal(err)
			}
		}
		merged.SetRefs(tally)

		if merged.Refs() != serial.Refs() {
			t.Errorf("slices=%d: refs = %+v, want %+v", slices, merged.Refs(), serial.Refs())
		}
		for _, pair := range [][2]*Cache{
			{merged.L1I(), serial.L1I()},
			{merged.L1D(), serial.L1D()},
			{merged.L2(), serial.L2()},
		} {
			if pair[0].Stats() != pair[1].Stats() {
				t.Errorf("slices=%d: %s stats = %+v, want %+v",
					slices, pair[0].Config().Name, pair[0].Stats(), pair[1].Stats())
			}
		}
		if merged.Summarize() != serial.Summarize() {
			t.Errorf("slices=%d: summaries differ", slices)
		}
	}
}

// TestHierarchyMerge: config checks, accumulation, empty-merge no-op.
func TestHierarchyMerge(t *testing.T) {
	cfg := sliceTestConfig()
	a := MustNewHierarchy(cfg, nil)
	b := MustNewHierarchy(cfg, nil)
	refs := []trace.Ref{
		{Kind: trace.Load, Addr: 0x100, Size: 8},
		{Kind: trace.Store, Addr: 0x2000, Size: 8},
		{Kind: trace.IFetch, Addr: 0x400100, Size: 4},
	}
	a.RecordBatch(refs)
	b.RecordBatch(refs)

	sum := MustNewHierarchy(cfg, nil)
	if err := sum.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := sum.Merge(b); err != nil {
		t.Fatal(err)
	}
	if sum.L1D().Stats().Accesses != 2*a.L1D().Stats().Accesses {
		t.Errorf("merged L1D accesses = %d, want %d", sum.L1D().Stats().Accesses, 2*a.L1D().Stats().Accesses)
	}
	sumRefs, aRefs := sum.Refs(), a.Refs()
	if sumRefs.Total() != 2*aRefs.Total() {
		t.Errorf("merged refs = %d, want %d", sumRefs.Total(), 2*aRefs.Total())
	}

	// Merging a fresh hierarchy changes nothing.
	before := sum.Summarize()
	if err := sum.Merge(MustNewHierarchy(cfg, nil)); err != nil {
		t.Fatal(err)
	}
	if sum.Summarize() != before {
		t.Error("merging an empty hierarchy changed counters")
	}

	// Mismatched configurations are rejected.
	other := cfg
	other.L2.Size *= 2
	if err := sum.Merge(MustNewHierarchy(other, nil)); err == nil {
		t.Error("merge across differing L2 configs accepted")
	}
	withL3 := cfg
	withL3.L3 = Config{Name: "L3", Size: 1 << 20, LineSize: 128, Assoc: 8}
	if err := sum.Merge(MustNewHierarchy(withL3, nil)); err == nil {
		t.Error("merge with mismatched L3 presence accepted")
	}

	// SetRefs overrides the tally wholesale.
	var override trace.Counts
	override.ByKind[trace.Load] = 42
	sum.SetRefs(override)
	if sum.Refs() != override {
		t.Errorf("SetRefs: refs = %+v, want %+v", sum.Refs(), override)
	}
}
