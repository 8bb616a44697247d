package trace

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"
)

// pipeRefs builds a deterministic mixed-kind stream big enough to wrap
// the ring several times at the given chunk size.
func pipeRefs(n int) []Ref {
	refs := make([]Ref, n)
	rng := uint64(42)
	for i := range refs {
		rng = rng*6364136223846793005 + 1442695040888963407
		refs[i] = Ref{Kind: Kind(rng >> 62 % 3), Addr: (rng >> 16) % (1 << 30), Size: 8}
	}
	return refs
}

// The pipeline's exactness contract: dst observes exactly the recorded
// sequence, whatever the chunk geometry or producer call pattern.
func TestPipelineDeliversExactSequence(t *testing.T) {
	refs := pipeRefs(10000)
	for _, chunk := range []int{1, 7, 64, 4096} {
		var got []Ref
		sink := FuncRecorder(func(r Ref) { got = append(got, r) })
		p := NewPipeline(sink, chunk, 2)
		for i := range refs {
			p.Record(refs[i])
		}
		p.Close()
		if len(got) != len(refs) {
			t.Fatalf("chunk %d: delivered %d refs, want %d", chunk, len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("chunk %d: ref %d = %+v, want %+v", chunk, i, got[i], refs[i])
			}
		}
	}
}

// RecordBatch must copy: the producer's buffer is reused immediately
// after the call, so aliasing it into the ring would corrupt the stream.
func TestPipelineRecordBatchCopies(t *testing.T) {
	refs := pipeRefs(20000)
	var counts Counts
	p := NewPipeline(&counts, 128, 4)
	buf := make([]Ref, 0, 97) // deliberately mismatched with chunk size
	var want Counts
	for i := range refs {
		buf = append(buf, refs[i])
		want.ByKind[refs[i].Kind]++
		if len(buf) == cap(buf) {
			p.RecordBatch(buf)
			for j := range buf {
				buf[j] = Ref{} // scribble over the reused buffer
			}
			buf = buf[:0]
		}
	}
	p.RecordBatch(buf)
	p.Close()
	if counts != want {
		t.Errorf("pipelined counts %+v, want %+v", counts, want)
	}
}

// Counts through the pipeline equal counts recorded directly, and Close
// is idempotent.
func TestPipelineMatchesDirectAndCloseIdempotent(t *testing.T) {
	refs := pipeRefs(5000)
	var direct Counts
	for i := range refs {
		direct.Record(refs[i])
	}
	var piped Counts
	p := NewPipeline(&piped, 0, 0)
	RecordBatch(p, refs)
	p.Close()
	p.Close()
	if piped != direct {
		t.Errorf("pipelined counts %+v, want %+v", piped, direct)
	}
}

// Exchange moves the producer's buffer through the ring without copying;
// the delivered sequence must still be exact, including when Exchange
// interleaves with per-record production, and the buffers handed back
// must be safe to refill immediately.
func TestPipelineExchangeDeliversExactSequence(t *testing.T) {
	refs := pipeRefs(20000)
	var got []Ref
	sink := FuncRecorder(func(r Ref) { got = append(got, r) })
	p := NewPipeline(sink, 128, 2)
	// Alternate blocks between per-record production and buffer exchange,
	// in stream order: a partial Record chunk must be flushed ahead of an
	// exchanged buffer (shipCur), so boundaries land anywhere.
	buf := make([]Ref, 0, 97)
	for off := 0; off < len(refs); {
		n := min(100+off%57, len(refs)-off)
		block := refs[off : off+n]
		if (off/100)%2 == 0 {
			for i := range block {
				p.Record(block[i])
			}
		} else {
			for i := range block {
				buf = append(buf, block[i])
				if len(buf) == cap(buf) {
					buf = p.Exchange(buf)
					if len(buf) != 0 {
						t.Fatal("Exchange returned a non-empty buffer")
					}
				}
			}
			buf = p.Exchange(buf)
		}
		off += n
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("delivered %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}

// withGOMAXPROCS runs fn with the processor count pinned, restoring it
// after — how the inline/concurrent mode split is exercised regardless of
// the host's core count.
func withGOMAXPROCS(t *testing.T, n int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// slowCounts is a consumer slower than any producer: it tallies each
// batch after a short sleep, so the ring runs full.
type slowCounts struct{ Counts }

func (c *slowCounts) RecordBatch(refs []Ref) {
	time.Sleep(20 * time.Microsecond)
	c.Counts.RecordBatch(refs)
}

// A long Exchange stream through a default-depth pipeline circulates a
// bounded set of chunk buffers. On the ring that is depth+2 — the ring
// itself, the one in the producer's hand and the one being drained — and
// with the default depth of 2 it is 4 × 64 KiB; the slow consumer keeps
// the ring full, so a deeper default or a chunk dropped instead of
// recycled shows up as more buffers. Inline, the producer gets its own
// buffer back every time and the pipeline allocates none.
func TestPipelineExchangeBuffersBounded(t *testing.T) {
	const chunks = 64
	refs := pipeRefs(DefaultChunk)
	for _, c := range []struct {
		name    string
		procs   int
		buffers int
	}{
		{"inline", 1, 1},
		{"ring", 2, 4},
	} {
		withGOMAXPROCS(t, c.procs, func() {
			var got slowCounts
			p := NewPipeline(&got, 0, 0)
			seen := map[*Ref]bool{}
			buf := make([]Ref, 0, DefaultChunk)
			for i := 0; i < chunks; i++ {
				buf = append(buf, refs...)
				seen[&buf[0]] = true
				buf = p.Exchange(buf)
			}
			if err := p.Close(); err != nil {
				t.Fatalf("%s: close: %v", c.name, err)
			}
			if got.Total() != chunks*DefaultChunk {
				t.Fatalf("%s: delivered %d refs, want %d", c.name, got.Total(), chunks*DefaultChunk)
			}
			if len(seen) > c.buffers {
				t.Errorf("%s: producer filled %d distinct buffers over %d chunks, want at most %d",
					c.name, len(seen), chunks, c.buffers)
			}
		})
	}
}

// Mode selection: default depth on a single-processor runtime drains
// inline; an explicit depth always takes the concurrent ring (the
// concurrency tests rely on that), and multi-processor defaults do too.
func TestPipelineModeSelection(t *testing.T) {
	withGOMAXPROCS(t, 1, func() {
		if p := NewPipeline(Discard, 0, 0); !p.inline {
			t.Error("default depth at GOMAXPROCS=1: want inline")
		}
		if p := NewPipeline(Discard, 0, 2); p.inline {
			t.Error("explicit depth at GOMAXPROCS=1: want concurrent")
		}
	})
	withGOMAXPROCS(t, 2, func() {
		if p := NewPipeline(Discard, 0, 0); p.inline {
			t.Error("default depth at GOMAXPROCS=2: want concurrent")
		}
	})
}

// The inline pipeline honors the full Pipeline contract: exact sequence
// across Record/RecordBatch/Exchange, idempotent Close, and consumer
// panic containment identical to the concurrent ring's.
func TestPipelineInlineContract(t *testing.T) {
	withGOMAXPROCS(t, 1, func() {
		refs := pipeRefs(10000)
		var got []Ref
		sink := FuncRecorder(func(r Ref) { got = append(got, r) })
		p := NewPipeline(sink, 64, 0)
		if !p.inline {
			t.Fatal("pipeline not inline at GOMAXPROCS=1")
		}
		buf := make([]Ref, 0, 81)
		for off := 0; off < len(refs); {
			n := min(90, len(refs)-off)
			block := refs[off : off+n]
			switch (off / 90) % 3 {
			case 0:
				for i := range block {
					p.Record(block[i])
				}
			case 1:
				p.RecordBatch(block)
			default:
				buf = append(buf[:0], block...)
				buf = p.Exchange(buf)
			}
			off += n
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if len(got) != len(refs) {
			t.Fatalf("delivered %d refs, want %d", len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("ref %d = %+v, want %+v", i, got[i], refs[i])
			}
		}
	})
}

// Inline consumer panic containment: the panic is recovered into a
// *ConsumerPanicError, later references are discarded, and Close
// surfaces the error — same contract as the concurrent ring.
func TestPipelineInlinePanicContainment(t *testing.T) {
	withGOMAXPROCS(t, 1, func() {
		delivered := 0
		sink := FuncRecorder(func(r Ref) {
			if delivered == 100 {
				panic("inline consumer failure")
			}
			delivered++
		})
		p := NewPipeline(sink, 16, 0)
		refs := pipeRefs(1000)
		for i := range refs {
			p.Record(refs[i]) // must not panic through to the producer
		}
		err := p.Close()
		var perr *ConsumerPanicError
		if !errors.As(err, &perr) {
			t.Fatalf("Close = %v, want *ConsumerPanicError", err)
		}
		if perr.Value != "inline consumer failure" {
			t.Errorf("panic value = %v", perr.Value)
		}
		if delivered != 100 {
			t.Errorf("delivered %d refs past the panic", delivered-100)
		}
	})
}

// The pipeline in front of a file Writer must produce the identical byte
// stream to recording into the Writer directly — the encoder is stateful
// (per-kind deltas), so this pins ordering through the ring.
func TestPipelineFileBytesIdentical(t *testing.T) {
	refs := pipeRefs(3000)
	var serial bytes.Buffer
	w := NewWriter(&serial)
	for i := range refs {
		w.Record(refs[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var piped bytes.Buffer
	pw := NewWriter(&piped)
	p := NewPipeline(pw, 256, 3)
	RecordBatch(p, refs)
	p.Close()
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), piped.Bytes()) {
		t.Errorf("pipelined encoding differs from serial (%d vs %d bytes)",
			piped.Len(), serial.Len())
	}
}
