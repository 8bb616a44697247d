package trace

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// Ref's field order is part of its memory contract. With Addr first, Kind
// and Size share Addr's trailing padding and a record is 16 bytes; with
// Kind first, the compiler pads it out to Addr's 8-byte alignment and the
// record grows to 24. Every CPU buffer, pipeline chunk and decoded batch
// is a []Ref, so a reordered struct would add half again to the memory a
// reference stream holds in flight.
func TestRefIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Ref{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Ref{}) = %d, want 16: keep Addr ahead of the one-byte fields", got)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{IFetch: "ifetch", Load: "load", Store: "store", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestCounts(t *testing.T) {
	var c Counts
	c.Record(Ref{Kind: IFetch, Addr: 0, Size: 4})
	c.Record(Ref{Kind: Load, Addr: 8, Size: 8})
	c.Record(Ref{Kind: Load, Addr: 16, Size: 8})
	c.Record(Ref{Kind: Store, Addr: 24, Size: 8})
	if c.IFetches() != 1 || c.Loads() != 2 || c.Stores() != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.DataRefs() != 3 {
		t.Errorf("DataRefs = %d, want 3", c.DataRefs())
	}
	if c.Total() != 4 {
		t.Errorf("Total = %d, want 4", c.Total())
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{ByKind: [3]uint64{1, 2, 3}}
	b := Counts{ByKind: [3]uint64{10, 20, 30}}
	a.Add(b)
	if a.ByKind != [3]uint64{11, 22, 33} {
		t.Errorf("Add = %v", a.ByKind)
	}
}

func TestTeeForwardsToAll(t *testing.T) {
	var a, b Counts
	tee := Tee{&a, &b}
	tee.Record(Ref{Kind: Store, Addr: 1, Size: 1})
	tee.Record(Ref{Kind: Load, Addr: 2, Size: 1})
	if a != b {
		t.Fatalf("tee recorders diverged: %+v vs %+v", a, b)
	}
	if a.Total() != 2 {
		t.Errorf("total = %d, want 2", a.Total())
	}
}

func TestDiscard(t *testing.T) {
	// Must simply not panic.
	Discard.Record(Ref{Kind: Load, Addr: 42, Size: 8})
}

func TestFilter(t *testing.T) {
	var c Counts
	f := &Filter{Next: &c, Keep: func(r Ref) bool { return r.Kind == Store }}
	f.Record(Ref{Kind: Load, Addr: 1})
	f.Record(Ref{Kind: Store, Addr: 2})
	f.Record(Ref{Kind: IFetch, Addr: 3})
	if c.Total() != 1 || c.Stores() != 1 {
		t.Errorf("filter passed %+v, want exactly one store", c)
	}
}

func TestFuncRecorder(t *testing.T) {
	var got []Ref
	r := FuncRecorder(func(r Ref) { got = append(got, r) })
	r.Record(Ref{Kind: Load, Addr: 7, Size: 8})
	if len(got) != 1 || got[0].Addr != 7 {
		t.Errorf("got %v", got)
	}
}

// Property: counts are invariant under any stream content — total equals
// number of records, and kind totals partition it.
func TestCountsPartitionProperty(t *testing.T) {
	f := func(kinds []uint8, addrs []uint64) bool {
		var c Counts
		n := len(kinds)
		if len(addrs) < n {
			n = len(addrs)
		}
		for i := 0; i < n; i++ {
			c.Record(Ref{Kind: Kind(kinds[i] % 3), Addr: addrs[i], Size: 8})
		}
		return c.Total() == uint64(n) && c.IFetches()+c.Loads()+c.Stores() == c.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
