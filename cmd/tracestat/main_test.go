package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"threadsched/internal/stackdist"
	"threadsched/internal/trace"
)

func TestKindFilter(t *testing.T) {
	load := trace.Ref{Kind: trace.Load}
	fetch := trace.Ref{Kind: trace.IFetch}
	all, err := kindFilter("all")
	if err != nil || !all(load) || !all(fetch) {
		t.Error("all filter")
	}
	data, err := kindFilter("data")
	if err != nil || !data(load) || data(fetch) {
		t.Error("data filter")
	}
	ifetch, err := kindFilter("ifetch")
	if err != nil || ifetch(load) || !ifetch(fetch) {
		t.Error("ifetch filter")
	}
	if _, err := kindFilter("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
}

// testRefs returns n pseudo-random references of every kind.
func testRefs(n int) []trace.Ref {
	refs := make([]trace.Ref, n)
	rng := uint64(11)
	for i := range refs {
		rng = rng*6364136223846793005 + 1442695040888963407
		refs[i] = trace.Ref{Kind: trace.Kind(rng >> 62 % 3), Addr: rng >> 44, Size: 8}
	}
	return refs
}

// encodeV1 encodes refs in the legacy version-1 format: unframed
// records of kind, size and zigzag-varint address delta from the last
// address of the same kind, with no checksums and no trailer.
func encodeV1(refs []trace.Ref) []byte {
	buf := []byte(trace.Magic + "\x01")
	var last [3]uint64
	for _, r := range refs {
		buf = append(buf, byte(r.Kind), r.Size)
		buf = binary.AppendVarint(buf, int64(r.Addr-last[r.Kind]))
		last[r.Kind] = r.Addr
	}
	return buf
}

// The streaming pass over a version-2 and a version-1 trace tallies
// exactly the written references and yields the curve of a stack-distance
// analyzer fed the kept references directly.
func TestAnalyze(t *testing.T) {
	refs := testRefs(30000)
	var v2 bytes.Buffer
	w := trace.NewWriter(&v2)
	trace.RecordBatch(w, refs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var want trace.Counts
	want.RecordBatch(refs)
	if want.Total() != w.Count() {
		t.Fatalf("tally %d, Writer count %d", want.Total(), w.Count())
	}
	keep, err := kindFilter("data")
	if err != nil {
		t.Fatal(err)
	}
	direct := stackdist.New(64)
	for _, r := range refs {
		if keep(r) {
			direct.Record(r)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"v2", v2.Bytes()}, {"v1", encodeV1(refs)}} {
		counts, ana, err := analyze(bytes.NewReader(tc.data), 64, keep)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if counts != want {
			t.Errorf("%s: tally %+v, want %+v", tc.name, counts, want)
		}
		if ana.Refs() != direct.Refs() || !slices.Equal(ana.Curve(), direct.Curve()) {
			t.Errorf("%s: %d refs, curve %v; direct analyzer %d refs, curve %v",
				tc.name, ana.Refs(), ana.Curve(), direct.Refs(), direct.Curve())
		}
	}

	// A cut or a flipped byte fails the pass with the typed error.
	flipped := bytes.Clone(v2.Bytes())
	flipped[len(flipped)/2] ^= 0x40
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"truncated", v2.Bytes()[:v2.Len()/2], trace.ErrTruncated},
		{"flipped", flipped, trace.ErrCorrupt},
	} {
		if _, _, err := analyze(bytes.NewReader(tc.data), 64, keep); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestBytesStr(t *testing.T) {
	cases := map[uint64]string{
		100:     "100B",
		1 << 10: "1K",
		1 << 20: "1M",
		3 << 20: "3M",
		1500:    "1500B",
	}
	for in, want := range cases {
		if got := bytesStr(in); got != want {
			t.Errorf("bytesStr(%d) = %q, want %q", in, got, want)
		}
	}
}
