package cache

import (
	"testing"

	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

func tinyHierarchy(t *testing.T, pt *vm.PageTable) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierarchyConfig{
		L1I: Config{Name: "L1I", Size: 256, LineSize: 32, Assoc: 1},
		L1D: Config{Name: "L1D", Size: 256, LineSize: 32, Assoc: 1},
		L2:  Config{Name: "L2", Size: 1024, LineSize: 64, Assoc: 2, Classify: true},
	}, pt)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyRouting(t *testing.T) {
	h := tinyHierarchy(t, nil)
	h.Record(trace.Ref{Kind: trace.IFetch, Addr: 0, Size: 4})
	h.Record(trace.Ref{Kind: trace.Load, Addr: 0, Size: 8})
	h.Record(trace.Ref{Kind: trace.Store, Addr: 0, Size: 8})
	if got := h.L1I().Stats().Accesses; got != 1 {
		t.Errorf("L1I accesses = %d, want 1", got)
	}
	if got := h.L1D().Stats().Accesses; got != 2 {
		t.Errorf("L1D accesses = %d, want 2", got)
	}
	// Both L1 cold misses go to L2; the second data ref hits L1D.
	if got := h.L2().Stats().Accesses; got != 2 {
		t.Errorf("L2 accesses = %d, want 2", got)
	}
}

func TestHierarchyL2OnlySeesL1Misses(t *testing.T) {
	h := tinyHierarchy(t, nil)
	for i := 0; i < 100; i++ {
		h.Record(trace.Ref{Kind: trace.Load, Addr: 64, Size: 8})
	}
	if got := h.L2().Stats().Accesses; got != 1 {
		t.Errorf("L2 accesses = %d, want 1 (only the cold miss)", got)
	}
	if got := h.L1D().Stats().Misses; got != 1 {
		t.Errorf("L1D misses = %d, want 1", got)
	}
}

func TestHierarchyLineSpanningRef(t *testing.T) {
	h := tinyHierarchy(t, nil)
	// 8-byte load at 28 spans lines 0 and 1 of the 32B L1D.
	h.Record(trace.Ref{Kind: trace.Load, Addr: 28, Size: 8})
	st := h.L1D().Stats()
	if st.Accesses != 2 || st.Misses != 2 {
		t.Fatalf("spanning ref: %+v, want 2 accesses 2 misses", st)
	}
}

func TestHierarchyZeroSizeTreatedAsOne(t *testing.T) {
	h := tinyHierarchy(t, nil)
	h.Record(trace.Ref{Kind: trace.Load, Addr: 10, Size: 0})
	if st := h.L1D().Stats(); st.Accesses != 1 {
		t.Fatalf("zero-size ref made %d accesses", st.Accesses)
	}
}

func TestHierarchySummary(t *testing.T) {
	h := tinyHierarchy(t, nil)
	h.Record(trace.Ref{Kind: trace.IFetch, Addr: 0, Size: 4})
	h.Record(trace.Ref{Kind: trace.Load, Addr: 512, Size: 8})
	// 544 is a different L1D line (set 1) but shares 512's 64-byte L2 line.
	h.Record(trace.Ref{Kind: trace.Store, Addr: 544, Size: 8})
	h.Record(trace.Ref{Kind: trace.Load, Addr: 512, Size: 8})
	s := h.Summarize()
	if s.IFetches != 1 || s.DataRefs != 3 {
		t.Fatalf("summary refs: %+v", s)
	}
	if s.L1Misses != 3 { // ifetch cold + two data colds; final load hits
		t.Errorf("L1Misses = %d, want 3", s.L1Misses)
	}
	if s.L2.Misses != 2 { // ifetch line + the shared data line
		t.Errorf("L2 misses = %d, want 2", s.L2.Misses)
	}
	if s.L1Rate != 100 {
		t.Errorf("L1Rate = %v, want 100", s.L1Rate)
	}
	if s.L2.Compulsory != 2 {
		t.Errorf("L2 compulsory = %d, want 2", s.L2.Compulsory)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := tinyHierarchy(t, nil)
	h.Record(trace.Ref{Kind: trace.Load, Addr: 0, Size: 8})
	h.Reset()
	refs := h.Refs()
	if refs.Total() != 0 {
		t.Fatal("refs survived reset")
	}
	if h.L1D().Stats().Accesses != 0 || h.L2().Stats().Accesses != 0 {
		t.Fatal("stats survived reset")
	}
}

func TestHierarchyPhysicalIndexing(t *testing.T) {
	// With a random page map, two virtual pages that would not conflict
	// under identity mapping can collide in the physically indexed L2.
	// We check only the plumbing here: the L2 observes translated
	// addresses, so resident lines differ from the virtual line numbers.
	pt, err := vm.NewPageTable(4096, vm.RandomPolicy{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHierarchy(t, pt)
	vaddr := uint64(0x1000_0000)
	h.Record(trace.Ref{Kind: trace.Load, Addr: vaddr, Size: 8})
	paddr := pt.Translate(vaddr)
	if !h.L2().Contains(paddr) {
		t.Error("L2 does not contain the translated line")
	}
	if paddr != vaddr && h.L2().Contains(vaddr) {
		t.Error("L2 contains the untranslated line")
	}
}

func TestHierarchyAttachTLB(t *testing.T) {
	h := tinyHierarchy(t, nil)
	tlb, err := vm.NewTLB(4, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	h.AttachTLB(tlb)
	h.Record(trace.Ref{Kind: trace.Load, Addr: 0x1000, Size: 8})
	h.Record(trace.Ref{Kind: trace.Load, Addr: 0x1800, Size: 8}) // same page
	h.Record(trace.Ref{Kind: trace.IFetch, Addr: 0x1000, Size: 4})
	if tlb.Accesses() != 2 {
		t.Fatalf("TLB saw %d accesses, want 2 (ifetches excluded)", tlb.Accesses())
	}
	if tlb.Misses() != 1 {
		t.Fatalf("TLB misses = %d, want 1", tlb.Misses())
	}
}

func TestHierarchyConfigValidate(t *testing.T) {
	bad := HierarchyConfig{
		L1I: Config{Name: "L1I", Size: 256, LineSize: 32, Assoc: 1},
		L1D: Config{Name: "L1D", Size: 0, LineSize: 32, Assoc: 1},
		L2:  Config{Name: "L2", Size: 1024, LineSize: 64, Assoc: 2},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid hierarchy validated")
	}
	if _, err := NewHierarchy(bad, nil); err == nil {
		t.Fatal("NewHierarchy accepted invalid config")
	}
}

func TestMustNewHierarchyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewHierarchy did not panic")
		}
	}()
	MustNewHierarchy(HierarchyConfig{}, nil)
}

// A reference that runs past the top of the address space still reaches
// its caches: the span ends at the last line instead of wrapping.
func TestHierarchyRefAtTopOfAddressSpace(t *testing.T) {
	h := tinyHierarchy(t, nil)
	h.Record(trace.Ref{Kind: trace.Load, Addr: 1<<64 - 4, Size: 8})
	if refs := h.Refs(); refs.DataRefs() != 1 {
		t.Fatalf("data refs = %d, want 1", refs.DataRefs())
	}
	if got := h.L1D().Stats().Accesses; got != 1 {
		t.Errorf("L1D accesses = %d, want 1 (the last line)", got)
	}
	if got := h.L2().Stats().Accesses; got != 1 {
		t.Errorf("L2 accesses = %d, want 1", got)
	}
	if !h.L1D().Contains(1<<64 - 1) {
		t.Error("last line not resident in L1D")
	}
	// The same clamp holds on the batch path and for one-byte lines,
	// where the last line number is 2^64-1 itself.
	h1 := MustNewHierarchy(HierarchyConfig{
		L1I: Config{Name: "L1I", Size: 16, LineSize: 1, Assoc: 2},
		L1D: Config{Name: "L1D", Size: 16, LineSize: 1, Assoc: 2},
		L2:  Config{Name: "L2", Size: 64, LineSize: 2, Assoc: 0},
	}, nil)
	h1.RecordBatch([]trace.Ref{{Kind: trace.Store, Addr: 1<<64 - 2, Size: 8}})
	if got := h1.L1D().Stats().Writes; got != 2 {
		t.Errorf("1-byte lines: L1D writes = %d, want 2", got)
	}
	if got := h1.L2().Stats().Accesses; got != 2 {
		t.Errorf("1-byte lines: L2 accesses = %d, want 2", got)
	}
}

// An out-of-range reference kind is a programming error: both entry
// points panic on it before any cache sees the reference, rather than
// tallying it as a load.
func TestHierarchyBadKindPanics(t *testing.T) {
	bad := trace.Ref{Kind: trace.Store + 1, Addr: 64, Size: 8}
	for name, record := range map[string]func(h *Hierarchy){
		"Record":      func(h *Hierarchy) { h.Record(bad) },
		"RecordBatch": func(h *Hierarchy) { h.RecordBatch([]trace.Ref{bad}) },
	} {
		t.Run(name, func(t *testing.T) {
			h := tinyHierarchy(t, nil)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on an out-of-range kind")
				}
				if got := h.L1D().Stats().Accesses + h.L1I().Stats().Accesses; got != 0 {
					t.Errorf("the bad reference reached L1: %d accesses", got)
				}
			}()
			record(h)
		})
	}
}
