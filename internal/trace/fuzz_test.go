package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"
)

// testChunk is one chunk of a hand-built version-2 trace.
type testChunk struct {
	payload []byte
	count   uint64
}

// framedTrace builds a version-2 trace whose chunks carry the given
// payloads and record counts under valid checksums, followed by a valid
// trailer claiming total records: the way to reach the record decoder's
// own checks, which a checksum failure otherwise pre-empts.
func framedTrace(total uint64, chunks ...testChunk) []byte {
	out := []byte("GTRC\x02")
	// seal appends to b, which extends out by one frame, the checksum of
	// that frame, and makes the result the new out.
	seal := func(b []byte) {
		out = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(out):]))
	}
	for _, c := range chunks {
		b := binary.AppendUvarint(out, uint64(len(c.payload)))
		b = append(b, c.payload...)
		seal(binary.AppendUvarint(b, c.count))
	}
	seal(binary.AppendUvarint(binary.AppendUvarint(out, 0), total))
	return out
}

// drain decodes r to its end, with Read when size is 0 and with ReadBatch
// into a size-record buffer otherwise. It returns the records delivered
// and the error the stream stopped with (nil at a clean end), after
// checking that the error is sticky: further Read and ReadBatch calls
// return the same error and no records.
func drain(t *testing.T, r *Reader, size int) ([]Ref, error) {
	t.Helper()
	var refs []Ref
	var err error
	if size == 0 {
		for {
			var ref Ref
			if ref, err = r.Read(); err != nil {
				break
			}
			refs = append(refs, ref)
		}
	} else {
		buf := make([]Ref, size)
		for {
			var n int
			n, err = r.ReadBatch(buf)
			refs = append(refs, buf[:n]...)
			if err != nil {
				break
			}
			if n == 0 {
				t.Fatal("ReadBatch returned no records and no error")
			}
		}
	}
	if err == io.EOF {
		return refs, nil
	}
	if _, again := r.Read(); again != err {
		t.Fatalf("error not sticky: Read after %v returned %v", err, again)
	}
	if n, again := r.ReadBatch(make([]Ref, 8)); n != 0 || again != err {
		t.Fatalf("error not sticky: ReadBatch after %v returned %d records, %v", err, n, again)
	}
	return refs, err
}

// sameDecode fails t unless two decodes delivered the same records and
// stopped with the same typed error.
func sameDecode(t *testing.T, what string, got []Ref, gotErr error, want []Ref, wantErr error) {
	t.Helper()
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("%s: err = %v, reference decoder err = %v", what, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records before %v, reference decoder %d", what, len(got), gotErr, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, reference decoder %+v", what, i, got[i], want[i])
		}
	}
}

// FuzzReader: arbitrary input bytes must never panic the decoder — they
// either decode as records or produce an error. Valid encodings round-trip
// through the seed corpus.
func FuzzReader(f *testing.F) {
	// Seeds: a valid small trace, truncations of it, and garbage.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Record(Ref{Kind: Load, Addr: 0x1000, Size: 8})
	w.Record(Ref{Kind: Store, Addr: 0x1008, Size: 8})
	w.Record(Ref{Kind: IFetch, Addr: 0x40_0000, Size: 4})
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:5])
	f.Add([]byte(Magic))
	f.Add([]byte("GTRC\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Add([]byte("not a trace at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1_000_000; i++ {
			_, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // any error is acceptable; panics are not
			}
		}
		t.Fatal("reader produced implausibly many records without EOF")
	})
}

// FuzzReadBatch: Read, ReadBatch at any buffer size (1 to 3 chunks'
// worth) and the independent reference decoder must deliver the same
// records from any input and stop with the same typed error after the
// same count, and the error must be sticky.
func FuzzReadBatch(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.RecordBatch(varintLengthRefs(2*frameRecs + 37))
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	firstBad := append([]byte(nil), valid...)
	firstBad[HeaderSize+8] ^= 0x40 // first chunk fails its checksum
	lastBad := append([]byte(nil), valid...)
	lastBad[len(lastBad)-1] ^= 0xff // trailer checksum
	// Checksummed chunks whose records disagree with their framing: a
	// byte left after the last record, an invalid kind, a count the
	// payload cannot hold, and an address varint cut off by the payload.
	good := testChunk{[]byte{1, 8, 2, 0, 4, 0xff, 0xff, 0x01}, 2}
	for _, bad := range []testChunk{
		{[]byte{1, 8, 2, 0, 4, 6, 0}, 2},
		{[]byte{1, 8, 2, 3, 4, 6}, 2},
		{[]byte{1, 8, 2, 0, 4, 6, 1}, 3},
		{[]byte{1, 8, 2, 0, 4, 0x86}, 2},
	} {
		f.Add(framedTrace(4, good, bad), uint16(1))
		f.Add(framedTrace(4, good, bad), uint16(frameRecs))
	}
	f.Add(framedTrace(2, good), uint16(1))
	f.Add(framedTrace(3, good), uint16(frameRecs))
	v1 := []byte("GTRC\x01\x01\x08\x02\x00\x04\xff\xff\x01\x02\x08\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f")
	for _, data := range [][]byte{valid, firstBad, lastBad, valid[:len(valid)/2], v1, []byte(Magic)} {
		for _, size := range []uint16{1, frameRecs - 1, frameRecs, frameRecs + 1} {
			f.Add(data, size)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		n := int(size)
		if n < 1 || n > 3*frameRecs {
			n = 1 + n%(3*frameRecs)
		}
		want, wantErr := refDecode(data)
		got, err := drain(t, NewReader(bytes.NewReader(data)), 0)
		sameDecode(t, "Read", got, err, want, wantErr)
		got, err = drain(t, NewReader(bytes.NewReader(data)), n)
		sameDecode(t, "ReadBatch", got, err, want, wantErr)
	})
}

// FuzzShardedDecode: the sharded decoder must agree with the serial
// Reader on arbitrary input — same records delivered in the same order
// when both succeed, a typed error when either fails, never a panic or a
// wedge — and the serial Reader with the reference decoder. Divergence
// from the serial reader is the bug class the prefix-sum base fixup
// could introduce.
func FuzzShardedDecode(f *testing.F) {
	refs := make([]Ref, 2*DefaultChunk+37)
	rng := uint64(11)
	for i := range refs {
		rng = rng*6364136223846793005 + 1442695040888963407
		refs[i] = Ref{Kind: Kind(rng >> 62 % 3), Addr: rng >> 16, Size: 8}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.RecordBatch(refs)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, uint32(0), byte(0))
	f.Add(valid, uint32(HeaderSize), byte(0x01))
	f.Add(valid, uint32(len(valid)-1), byte(0xff))
	f.Add(valid[:len(valid)/2], uint32(0), byte(0))
	f.Add([]byte(Magic), uint32(0), byte(0))
	f.Add([]byte{}, uint32(0), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, off uint32, xor byte) {
		data = append([]byte(nil), data...)
		if len(data) > 0 {
			data[int(off)%len(data)] ^= xor
		}
		serial, serialErr := drain(t, NewReader(bytes.NewReader(data)), 0)
		// The serial Reader shares its record loop with the sharded
		// decoder, so it is itself checked against the reference decoder.
		want, wantErr := refDecode(data)
		sameDecode(t, "serial", serial, serialErr, want, wantErr)
		mf, err := NewMemFile(data)
		if err != nil {
			// The index scan may reject what the serial reader also
			// rejects; it must never reject what decodes cleanly.
			if serialErr == nil {
				t.Fatalf("NewMemFile rejected a serially-decodable trace: %v", err)
			}
			return
		}
		var sharded []Ref
		shardErr := mf.ForEachBatch(4, func(refs []Ref) error {
			sharded = append(sharded, refs...)
			return nil
		})
		if (serialErr == nil) != (shardErr == nil) {
			t.Fatalf("oracle disagreement: serial err = %v, sharded err = %v", serialErr, shardErr)
		}
		if serialErr != nil {
			return // both detected damage; exact sentinel may differ
		}
		if len(sharded) != len(serial) {
			t.Fatalf("sharded decoded %d records, serial %d", len(sharded), len(serial))
		}
		for i := range serial {
			if sharded[i] != serial[i] {
				t.Fatalf("record %d: sharded %+v, serial %+v", i, sharded[i], serial[i])
			}
		}
	})
}

// FuzzChunkTrailer: mutating any single byte of a valid chunked trace —
// chunk framing, payload, count, checksums, or the trailer — must either
// be detected as an error or leave the decoded stream exactly intact
// (the mutation was a no-op). Silently decoding different records is the
// failure mode the chunk trailers exist to prevent.
func FuzzChunkTrailer(f *testing.F) {
	refs := make([]Ref, 2*DefaultChunk+37)
	rng := uint64(5)
	for i := range refs {
		rng = rng*6364136223846793005 + 1442695040888963407
		refs[i] = Ref{Kind: Kind(rng >> 62 % 3), Addr: rng >> 16, Size: 8}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.RecordBatch(refs)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	// Seed interesting positions: first chunk header, both chunk
	// trailers, and the file trailer.
	f.Add(uint32(HeaderSize), byte(0x01))
	f.Add(uint32(HeaderSize), byte(0x80))
	f.Add(uint32(len(valid)-1), byte(0xff))
	f.Add(uint32(len(valid)-5), byte(0x01))
	f.Add(uint32(len(valid)/2), byte(0x10))

	f.Fuzz(func(t *testing.T, off uint32, xor byte) {
		data := append([]byte(nil), valid...)
		pos := int(off) % len(data)
		data[pos] ^= xor
		// The header carries no checksum: mutating it may legitimately
		// reinterpret the body (e.g. as version 1), so the oracle below
		// only applies to body mutations.
		mutatedBody := xor != 0 && pos >= HeaderSize
		r := NewReader(bytes.NewReader(data))
		n := 0
		for i := 0; i < len(data); i++ {
			ref, err := r.Read()
			if err == io.EOF {
				if mutatedBody {
					t.Fatalf("mutation at %d (xor %#x) decoded cleanly", pos, xor)
				}
				if xor == 0 && n != len(refs) {
					t.Fatalf("decoded %d records, want %d", n, len(refs))
				}
				return
			}
			if err != nil {
				return // detected, as required
			}
			if mutatedBody || xor == 0 {
				// Records before a detected error must match the
				// original prefix: chunks verify before they decode.
				if n >= len(refs) {
					t.Fatalf("mutation at %d (xor %#x) grew the stream", pos, xor)
				}
				if ref != refs[n] {
					t.Fatalf("mutation at %d (xor %#x): record %d = %+v, want %+v",
						pos, xor, n, ref, refs[n])
				}
			}
			n++
		}
		t.Fatal("reader produced implausibly many records without EOF")
	})
}

// FuzzWriterRoundTrip: any stream, split at random across Record,
// RecordBatch, Exchange and Flush, reads back as itself with an exact
// Count, in the bytes the synchronous encoder writes for it.
func FuzzWriterRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(100), []byte{0, 1, 2, 3})
	f.Add(uint64(2), uint16(3*DefaultChunk), []byte{0xfe, 3, 0x41, 0, 0xfd, 0x82})
	f.Add(uint64(3), uint16(0), []byte{3, 3})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, ops []byte) {
		got, want := playOps(t, writerRefs(seed, int(n)), ops)
		if !bytes.Equal(got, want) {
			t.Fatalf("Writer wrote %d bytes that differ from the synchronous encoder's %d",
				len(got), len(want))
		}
	})
}
