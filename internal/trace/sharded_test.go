package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"threadsched/internal/fault"
)

// shardedCollect decodes data through the sharded path with the given
// worker count and returns the delivered sequence.
func shardedCollect(t *testing.T, data []byte, workers int) []Ref {
	t.Helper()
	f, err := NewMemFile(data)
	if err != nil {
		t.Fatal(err)
	}
	var got []Ref
	if err := f.ForEachBatch(workers, func(refs []Ref) error {
		got = append(got, refs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestShardedMatchesSerial: the differential oracle — the sharded decode
// must deliver a sequence bit-identical to the serial Reader's, at every
// worker count, across chunk-boundary-straddling delta chains.
func TestShardedMatchesSerial(t *testing.T) {
	refs := integrityRefs(3*frameRecs + 129)
	data := encodeTrace(t, refs)
	want, err := decodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(refs) {
		t.Fatalf("serial oracle decoded %d records, want %d", len(want), len(refs))
	}
	for _, workers := range []int{0, 1, 2, 3, 4, 8, 16} {
		got := shardedCollect(t, data, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: decoded %d records, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: record %d = %+v, want %+v (sharded decode diverged)",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestShardedIndex: the chunk index reflects the file's actual geometry.
func TestShardedIndex(t *testing.T) {
	n := 2*frameRecs + 7
	data := encodeTrace(t, integrityRefs(n))
	f, err := NewMemFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version() != FormatVersion {
		t.Errorf("Version() = %d, want %d", f.Version(), FormatVersion)
	}
	if f.Chunks() != 3 {
		t.Errorf("Chunks() = %d, want 3", f.Chunks())
	}
	if f.Records() != uint64(n) {
		t.Errorf("Records() = %d, want %d", f.Records(), n)
	}
	if f.Size() != len(data) {
		t.Errorf("Size() = %d, want %d", f.Size(), len(data))
	}
}

// TestShardedV1Fallback: version-1 files carry no chunk index; the
// MemFile must fall back to the serial path and still decode identically.
func TestShardedV1Fallback(t *testing.T) {
	refs := integrityRefs(500)
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.WriteByte(1)
	var last [numKinds]uint64
	for _, r := range refs {
		buf.WriteByte(byte(r.Kind))
		buf.WriteByte(r.Size)
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], int64(r.Addr-last[r.Kind]))
		buf.Write(tmp[:n])
		last[r.Kind] = r.Addr
	}
	f, err := NewMemFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.Version() != 1 || f.Chunks() != 0 {
		t.Fatalf("v1 file: Version()=%d Chunks()=%d, want 1, 0", f.Version(), f.Chunks())
	}
	got := shardedCollect(t, buf.Bytes(), 4)
	if len(got) != len(refs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}

// TestShardedCorruptionTyped: flipping any bit past the header must
// surface a typed error (ErrCorrupt or ErrTruncated) from the sharded
// path, either at index-build or at decode — exactly the integrity
// property the serial reader has. In -short mode a stride samples the
// offsets; the full sweep covers every byte.
func TestShardedCorruptionTyped(t *testing.T) {
	orig := encodeTrace(t, integrityRefs(2*frameRecs+7))
	stride := 1
	if testing.Short() {
		stride = 13
	}
	data := make([]byte, len(orig))
	for off := HeaderSize; off < len(orig); off += stride {
		copy(data, orig)
		data[off] ^= 1 << (off % 8)
		err := shardedTyped(data)
		if err == nil {
			t.Fatalf("bit flip at offset %d went undetected by sharded decode", off)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("bit flip at offset %d: err = %v, want ErrCorrupt or ErrTruncated", off, err)
		}
	}
}

// shardedTyped runs the sharded decode over data and returns whichever
// error the path surfaces (index scan or parallel decode).
func shardedTyped(data []byte) error {
	f, err := NewMemFile(data)
	if err != nil {
		return err
	}
	return f.ForEachBatch(4, func([]Ref) error { return nil })
}

// TestShardedTruncationTyped: cutting the image at any byte past the
// header must surface ErrTruncated, as in the serial reader.
func TestShardedTruncationTyped(t *testing.T) {
	data := encodeTrace(t, integrityRefs(frameRecs+7))
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for cut := HeaderSize; cut < len(data); cut += stride {
		if err := shardedTyped(data[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d/%d: err = %v, want ErrTruncated", cut, len(data), err)
		}
	}
}

// TestShardedHeaderErrors: the MemFile constructor types header damage
// exactly as the serial reader does.
func TestShardedHeaderErrors(t *testing.T) {
	valid := encodeTrace(t, integrityRefs(10))
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"partial header", valid[:3], ErrTruncated},
		{"bad magic", []byte("NOPE\x02xxxx"), ErrBadMagic},
		{"bad version", append([]byte(Magic), 9), ErrBadVersion},
	}
	for _, tc := range cases {
		if _, err := NewMemFile(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Data after the trailer is corruption, detected at index build.
	if _, err := NewMemFile(append(append([]byte(nil), valid...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("data after trailer: err = %v, want ErrCorrupt", err)
	}
}

// TestShardedErrorPrefix: when a late chunk is damaged, every chunk
// before it is delivered before the typed error returns — matching the
// serial reader's verified-prefix semantics at chunk granularity.
func TestShardedErrorPrefix(t *testing.T) {
	data := encodeTrace(t, integrityRefs(3*frameRecs+7))
	f, err := NewMemFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Chunks() != 4 {
		t.Fatalf("Chunks() = %d, want 4", f.Chunks())
	}
	// Flip a payload byte of the last chunk (geometry survives, CRC fails).
	last := f.chunks[3]
	data[last.payload] ^= 0x40
	f2, err := NewMemFile(data)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	err = f2.ForEachBatch(4, func(refs []Ref) error {
		delivered += len(refs)
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if delivered != 3*frameRecs {
		t.Fatalf("delivered %d records before the error, want %d", delivered, 3*frameRecs)
	}
}

// TestShardedFnError: an error from the callback stops the decode and is
// returned as-is, with no goroutine wedge behind it.
func TestShardedFnError(t *testing.T) {
	data := encodeTrace(t, integrityRefs(4*frameRecs))
	f, err := NewMemFile(data)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	calls := 0
	err = f.ForEachBatch(4, func([]Ref) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v, want the callback's sentinel", err)
	}
	if calls != 2 {
		t.Fatalf("callback ran %d times after the error, want 2", calls)
	}
}

// TestShardedFaultInjection: deterministic delays at chunk boundaries
// perturb worker completion order; the delivered sequence must stay
// bit-identical and race-clean (this test is in the -race suite).
func TestShardedFaultInjection(t *testing.T) {
	refs := integrityRefs(4*frameRecs + 99)
	data := encodeTrace(t, refs)
	want, err := decodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42, 777} {
		f, err := NewMemFile(data)
		if err != nil {
			t.Fatal(err)
		}
		f.Inject(fault.New(fault.Config{
			Seed:  seed,
			Prob:  map[fault.Site]float64{FaultSiteShardChunk: 0.6},
			Delay: 200 * time.Microsecond,
		}))
		var got []Ref
		if err := f.ForEachBatch(4, func(refs []Ref) error {
			got = append(got, refs...)
			return nil
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: decoded %d records, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: record %d = %+v, want %+v (injection changed results)",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestShardedSingleChunk: files too small to shard (one chunk) take the
// serial fallback and still decode exactly.
func TestShardedSingleChunk(t *testing.T) {
	refs := integrityRefs(17)
	data := encodeTrace(t, refs)
	got := shardedCollect(t, data, 8)
	if len(got) != len(refs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}
