package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// encodeTrace writes refs through a Writer and returns the full v2 byte
// stream (header, chunks, trailer).
func encodeTrace(t *testing.T, refs []Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range refs {
		w.Record(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// integrityRefs spans two chunks so chunk boundaries, the second chunk,
// and the trailer are all inside the tested region.
func integrityRefs(n int) []Ref {
	refs := make([]Ref, n)
	rng := uint64(99)
	for i := range refs {
		rng = rng*6364136223846793005 + 1442695040888963407
		refs[i] = Ref{Kind: Kind(rng >> 62 % 3), Addr: rng >> 16, Size: 8}
	}
	return refs
}

func decodeAll(data []byte) ([]Ref, error) {
	r := NewReader(bytes.NewReader(data))
	var got []Ref
	err := r.ForEach(func(ref Ref) error { got = append(got, ref); return nil })
	return got, err
}

// TestTruncationDetectedAtEveryByte: cutting the stream at any byte past
// the header must surface ErrTruncated — the property the mandatory
// trailer buys over format version 1.
func TestTruncationDetectedAtEveryByte(t *testing.T) {
	data := encodeTrace(t, integrityRefs(frameRecs+7))
	for cut := HeaderSize; cut < len(data); cut++ {
		if _, err := decodeAll(data[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d/%d: err = %v, want ErrTruncated", cut, len(data), err)
		}
	}
}

// TestCorruptionDetectedAtEveryByte: flipping one bit in any byte past
// the header must surface an error — every post-header byte is covered by
// a chunk or trailer checksum.
func TestCorruptionDetectedAtEveryByte(t *testing.T) {
	orig := encodeTrace(t, integrityRefs(frameRecs+7))
	data := make([]byte, len(orig))
	for off := HeaderSize; off < len(orig); off++ {
		copy(data, orig)
		data[off] ^= 1 << (off % 8)
		if _, err := decodeAll(data); err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
	}
}

// TestDataAfterTrailerIsCorrupt: a complete trace followed by stray bytes
// is reported, not silently accepted.
func TestDataAfterTrailerIsCorrupt(t *testing.T) {
	data := encodeTrace(t, integrityRefs(10))
	if _, err := decodeAll(append(data, 0x00)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestFlushWithoutCloseIsTruncated: Flush makes records durable but does
// not complete the trace; the flushed records decode, then the missing
// trailer is reported as truncation.
func TestFlushWithoutCloseIsTruncated(t *testing.T) {
	refs := integrityRefs(100)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range refs {
		w.Record(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := decodeAll(buf.Bytes())
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if len(got) != len(refs) {
		t.Fatalf("decoded %d flushed records before the error, want %d", len(got), len(refs))
	}
}

// TestWriterCloseIdempotentAndFinal: Close twice is fine; recording after
// Close is an error.
func TestWriterCloseIdempotentAndFinal(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Record(Ref{Kind: Load, Addr: 8, Size: 8})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if buf.Len() != n {
		t.Fatal("second Close wrote bytes")
	}
	w.Record(Ref{Kind: Load, Addr: 16, Size: 8})
	if err := w.Close(); err == nil {
		t.Fatal("Record after Close was not reported")
	}
}

// TestChunkBoundariesMatchBatching: per-record and batched recording of
// the same stream produce identical bytes — chunk cuts depend only on
// record count, which the pipeline byte-identity test relies on.
func TestChunkBoundariesMatchBatching(t *testing.T) {
	refs := integrityRefs(frameRecs + 123)
	var a, b bytes.Buffer
	wa := NewWriter(&a)
	for _, r := range refs {
		wa.Record(r)
	}
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}
	wb := NewWriter(&b)
	for off := 0; off < len(refs); off += 300 {
		end := min(off+300, len(refs))
		wb.RecordBatch(refs[off:end])
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("batched encoding differs from per-record (%d vs %d bytes)", b.Len(), a.Len())
	}
}

// TestLegacyV1Readable: a version-1 stream (unframed records, no trailer)
// still decodes, ending cleanly at EOF.
func TestLegacyV1Readable(t *testing.T) {
	refs := []Ref{
		{Kind: IFetch, Addr: 0x1000, Size: 4},
		{Kind: Load, Addr: 0x2000, Size: 8},
		{Kind: Load, Addr: 0x2008, Size: 8},
		{Kind: Store, Addr: 0x1ff8, Size: 8},
	}
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
	got, err := decodeAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
	// v1 truncation mid-record is still reported.
	if _, err := decodeAll(buf.Bytes()[:buf.Len()-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("v1 mid-record cut: err = %v, want ErrTruncated", err)
	}
}

// TestLegacyV1OverflowIsCorrupt: a version-1 address delta whose varint
// overflows 64 bits is damage, reported as ErrCorrupt by Read and
// ReadBatch alike, after the records before it.
func TestLegacyV1OverflowIsCorrupt(t *testing.T) {
	data := []byte(Magic + "\x01")
	// A load at +8, then a load whose delta varint has a tenth byte above 1.
	data = append(data, byte(Load), 8, 0x10)
	data = append(data, byte(Load), 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	got, err := decodeAll(data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read: err = %v, want ErrCorrupt", err)
	}
	if len(got) != 1 || got[0] != (Ref{Kind: Load, Addr: 8, Size: 8}) {
		t.Fatalf("Read decoded %+v before the damage, want one load at 8", got)
	}
	n, err := NewReader(bytes.NewReader(data)).ReadBatch(make([]Ref, 4))
	if n != 1 || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadBatch = %d, %v; want 1, ErrCorrupt", n, err)
	}
}

// TestReadBatchSurfacesCorruption: the batch path reports the typed error
// alongside the records decoded before it.
func TestReadBatchSurfacesCorruption(t *testing.T) {
	data := encodeTrace(t, integrityRefs(2*frameRecs))
	data[len(data)-1] ^= 0xff // trailer checksum
	r := NewReader(bytes.NewReader(data))
	buf := make([]Ref, 3*frameRecs)
	var err error
	total := 0
	for {
		var n int
		n, err = r.ReadBatch(buf)
		total += n
		if err != nil {
			break
		}
	}
	if err == io.EOF || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if total != 2*frameRecs {
		t.Fatalf("decoded %d records before the error, want %d", total, 2*frameRecs)
	}
}

// TestReaderErrorsAreSticky: once a chunk fails verification, every later
// Read and ReadBatch returns that same error. Resuming past the bad chunk
// would decode the next chunks against per-kind bases that skipped its
// records, delivering wrong addresses.
func TestReaderErrorsAreSticky(t *testing.T) {
	data := encodeTrace(t, integrityRefs(3*frameRecs))
	data[HeaderSize+8] ^= 0x40 // inside the first chunk's payload
	for _, batch := range []bool{false, true} {
		r := NewReader(bytes.NewReader(data))
		buf := make([]Ref, frameRecs)
		var first error
		if batch {
			_, first = r.ReadBatch(buf)
		} else {
			_, first = r.Read()
		}
		if !errors.Is(first, ErrCorrupt) {
			t.Fatalf("batch=%v: first call err = %v, want ErrCorrupt", batch, first)
		}
		for i := 0; i < 4; i++ {
			if ref, err := r.Read(); err != first {
				t.Fatalf("batch=%v: Read %d after the error = %+v, %v; want %v", batch, i, ref, err, first)
			}
			if n, err := r.ReadBatch(buf); n != 0 || err != first {
				t.Fatalf("batch=%v: ReadBatch %d after the error = %d records, %v; want %v", batch, i, n, err, first)
			}
		}
	}
}

// TestReadBatchSteadyStateAllocationFree: once the payload buffer has
// grown to the chunk size, loading, verifying and decoding a chunk
// allocates nothing.
func TestReadBatchSteadyStateAllocationFree(t *testing.T) {
	var enc bytes.Buffer
	w := NewWriter(&enc)
	w.RecordBatch(strideRefs(128 * frameRecs)) // equal-sized chunks
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(enc.Bytes()))
	buf := make([]Ref, frameRecs)
	if n, err := r.ReadBatch(buf); n != frameRecs || err != nil {
		t.Fatalf("warm-up ReadBatch = %d, %v", n, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := r.ReadBatch(buf); n != frameRecs || err != nil {
			t.Fatalf("ReadBatch = %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadBatch allocates %.1f times per chunk, want 0", allocs)
	}
}
