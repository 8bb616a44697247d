package trace

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// benchRefs models the dense kernels' stream: mostly sequential loads
// with periodic ifetches and stores, the shape the delta encoder and the
// batch path are tuned for.
func benchRefs(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		switch i % 8 {
		case 0:
			refs[i] = Ref{Kind: IFetch, Addr: 0x1000_0000 + uint64(i/8%64)*32, Size: 4}
		case 5:
			refs[i] = Ref{Kind: Store, Addr: 0x3000_0000 + uint64(i)*8, Size: 8}
		default:
			refs[i] = Ref{Kind: Load, Addr: 0x2000_0000 + uint64(i)*8, Size: 8}
		}
	}
	return refs
}

// strideRefs models the interchanged matmul trace: ifetches and stores
// walk sequentially (1-byte deltas) while loads alternate between two
// arrays 64 KiB apart (3-byte deltas), so half the records carry a 3-byte
// address delta.
func strideRefs(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		j := uint64(i / 4)
		switch i % 4 {
		case 0:
			refs[i] = Ref{Kind: IFetch, Addr: 0x1000_0000 + j%64*4, Size: 4}
		case 1:
			refs[i] = Ref{Kind: Load, Addr: 0x2000_0000 + j*8, Size: 8}
		case 2:
			refs[i] = Ref{Kind: Load, Addr: 0x2001_0000 + j*8, Size: 8}
		default:
			refs[i] = Ref{Kind: Store, Addr: 0x3000_0000 + j*8, Size: 8}
		}
	}
	return refs
}

// BenchmarkReaderDecode is the decode layer alone: Reader.ReadBatch over
// an in-memory version-2 trace into one reused buffer, the way tracesim
// decodes. "stride" is the matmul-like stream (half 3-byte deltas),
// "sequential" the SOR-like one (mostly 1-byte deltas). MB/s counts
// encoded trace bytes; ns/ref is per decoded record.
func BenchmarkReaderDecode(b *testing.B) {
	for _, s := range []struct {
		name string
		refs []Ref
	}{{"stride", strideRefs(1 << 20)}, {"sequential", benchRefs(1 << 20)}} {
		var enc bytes.Buffer
		w := NewWriter(&enc)
		w.RecordBatch(s.refs)
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		data := enc.Bytes()
		b.Run(s.name, func(b *testing.B) {
			buf := make([]Ref, DefaultChunk)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewReader(bytes.NewReader(data))
				got := 0
				for {
					n, err := r.ReadBatch(buf)
					got += n
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if got != len(s.refs) {
					b.Fatalf("decoded %d records, want %d", got, len(s.refs))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(s.refs)), "ns/ref")
		})
	}
}

// BenchmarkFileRoundTrip measures encode-then-decode throughput of the
// binary trace format, per-record versus chunked, in refs per op (use
// ns/op ÷ 64k for ns/ref). The byte streams are identical; only the call
// granularity differs.
func BenchmarkFileRoundTrip(b *testing.B) {
	refs := benchRefs(1 << 16)
	b.Run("record", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		b.SetBytes(int64(len(refs)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			w := NewWriter(&buf)
			for j := range refs {
				w.Record(refs[j])
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			r := NewReader(&buf)
			if err := r.ForEach(func(Ref) error { return nil }); err != nil && err != io.EOF {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		b.SetBytes(int64(len(refs)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			w := NewWriter(&buf)
			for off := 0; off < len(refs); off += DefaultChunk {
				end := off + DefaultChunk
				if end > len(refs) {
					end = len(refs)
				}
				w.RecordBatch(refs[off:end])
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			r := NewReader(&buf)
			if err := r.ForEachBatch(0, func([]Ref) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedDecode measures pure decode wire speed from a preloaded
// image: serial Reader versus the sharded MemFile ForEachBatch, with its
// in-order delivery and base fixup, at several worker counts.
func BenchmarkShardedDecode(b *testing.B) {
	refs := benchRefs(1 << 20)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.RecordBatch(refs)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(refs)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := NewReader(bytes.NewReader(data))
			if err := r.ForEachBatch(0, func([]Ref) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	f, err := NewMemFile(data)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ordered-w%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(refs)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.ForEachBatch(workers, func([]Ref) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipeline measures the SPSC chunk ring's producer-side cost:
// references recorded through the pipeline into a Counts sink.
func BenchmarkPipeline(b *testing.B) {
	refs := benchRefs(1 << 16)
	b.Run("direct", func(b *testing.B) {
		var c Counts
		b.SetBytes(int64(len(refs)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.RecordBatch(refs)
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		var c Counts
		b.ReportAllocs()
		b.SetBytes(int64(len(refs)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := NewPipeline(&c, 0, 0)
			p.RecordBatch(refs)
			p.Close()
		}
	})
}
