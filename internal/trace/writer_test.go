package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// writerRefs builds a mixed stream from seed: runs of nearby addresses,
// as the traced kernels emit, broken by jumps anywhere in the 64-bit
// space, so both short and maximal varint deltas occur.
func writerRefs(seed uint64, n int) []Ref {
	refs := make([]Ref, n)
	rng, addr := seed, uint64(0)
	for i := range refs {
		rng = rng*6364136223846793005 + 1442695040888963407
		if rng>>60 == 0 {
			addr = rng
		} else {
			addr += (rng>>40)%64*8 - 256
		}
		refs[i] = Ref{Kind: Kind(rng >> 33 % 3), Addr: addr, Size: uint8(rng >> 20)}
	}
	return refs
}

// playOps records refs into a Writer with the call pattern ops spells and
// returns the Writer's bytes and a synchronous encoder's bytes for the
// same stream. Each op byte picks Record, RecordBatch, Exchange or Flush
// (its low two bits) and a batch length (the rest); the encoder is
// flushed where the Writer is, since Flush frames the open chunk. Once
// ops run out, the rest of refs goes in by RecordBatch. playOps checks
// Count after every Flush and after Close, and that the stream reads
// back as refs.
func playOps(t *testing.T, refs []Ref, ops []byte) (got, want []byte) {
	t.Helper()
	var gotBuf, wantBuf bytes.Buffer
	w := NewWriter(&gotBuf)
	enc := encoder{w: bufio.NewWriterSize(&wantBuf, WriterBufSize)}
	var buf []Ref
	next := 0
	for i := 0; next < len(refs); i++ {
		op := byte(0xfd)
		if i < len(ops) {
			op = ops[i]
		}
		batch := refs[next : next+min(int(op>>2)*67+1, len(refs)-next)]
		switch op % 4 {
		case 0:
			batch = batch[:1]
			w.Record(batch[0])
		case 1:
			w.RecordBatch(batch)
		case 2:
			buf = w.Exchange(append(buf[:0], batch...))
			if len(buf) != 0 {
				t.Fatalf("Exchange returned a buffer holding %d records", len(buf))
			}
		case 3:
			batch = nil
			if err := w.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if err := enc.flush(); err != nil {
				t.Fatal(err)
			}
			if n := w.Count(); n != uint64(next) {
				t.Fatalf("Count after Flush = %d, want %d", n, next)
			}
		}
		enc.RecordBatch(batch)
		next += len(batch)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := enc.close(); err != nil {
		t.Fatal(err)
	}
	if n := w.Count(); n != uint64(len(refs)) {
		t.Fatalf("Count after Close = %d, want %d", n, len(refs))
	}
	back, err := decodeAll(gotBuf.Bytes())
	if err != nil {
		t.Fatalf("reading the trace back: %v", err)
	}
	if len(back) != len(refs) {
		t.Fatalf("read back %d records, wrote %d", len(back), len(refs))
	}
	for i := range refs {
		if back[i] != refs[i] {
			t.Fatalf("record %d read back as %+v, wrote %+v", i, back[i], refs[i])
		}
	}
	return gotBuf.Bytes(), wantBuf.Bytes()
}

// withProcs runs fn at GOMAXPROCS=1 (the inline pipeline) and at
// GOMAXPROCS=2 (the concurrent one).
func withProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// TestWriterMatchesSyncEncoder: whatever mix of Record, RecordBatch,
// Exchange and Flush carries a stream, the Writer's bytes are the
// synchronous encoder's.
func TestWriterMatchesSyncEncoder(t *testing.T) {
	refs := writerRefs(7, 3*DefaultChunk+100)
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 200)
	for i := range random {
		random[i] = byte(rng.Intn(256))
	}
	patterns := map[string][]byte{
		"batches":     nil,
		"records":     bytes.Repeat([]byte{0}, len(refs)),
		"exchanges":   bytes.Repeat([]byte{0xfe}, 4),
		"interleaved": {0, 1, 2, 0x41, 0x42, 0x80, 3, 0xfe, 0, 0, 0xfd, 3, 3, 0x12, 0x21},
		"random":      random,
	}
	withProcs(t, func(t *testing.T) {
		for name, ops := range patterns {
			got, want := playOps(t, refs, ops)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: Writer wrote %d bytes that differ from the synchronous encoder's %d",
					name, len(got), len(want))
			}
		}
	})
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct {
	limit int
	err   error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		n := f.limit
		f.limit = 0
		return n, f.err
	}
	f.limit -= len(p)
	return len(p), nil
}

// TestWriterSurfacesWriteError: an io.Writer failing mid-stream fails
// Flush and Close with its error, whichever is called first.
func TestWriterSurfacesWriteError(t *testing.T) {
	errDisk := errors.New("disk full")
	refs := writerRefs(3, 5*DefaultChunk)
	withProcs(t, func(t *testing.T) {
		w := NewWriterSize(&failingWriter{limit: 20000, err: errDisk}, 4096)
		w.RecordBatch(refs)
		if err := w.Flush(); !errors.Is(err, errDisk) {
			t.Fatalf("Flush = %v, want %v", err, errDisk)
		}
		if err := w.Close(); !errors.Is(err, errDisk) {
			t.Fatalf("Close after Flush = %v, want %v", err, errDisk)
		}

		w = NewWriterSize(&failingWriter{limit: 20000, err: errDisk}, 4096)
		for i := range refs {
			w.Record(refs[i])
		}
		if err := w.Close(); !errors.Is(err, errDisk) {
			t.Fatalf("Close = %v, want %v", err, errDisk)
		}
		if err := w.Close(); !errors.Is(err, errDisk) {
			t.Fatalf("second Close = %v, want %v", err, errDisk)
		}
	})
}

// TestWriterMisuseErrors: each recording call after Close is an error
// that Flush and Close report, and a bad kind fails Close whichever call
// carried it.
func TestWriterMisuseErrors(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		after := map[string]func(w *Writer){
			"Record":      func(w *Writer) { w.Record(Ref{Kind: Load, Addr: 8, Size: 8}) },
			"RecordBatch": func(w *Writer) { w.RecordBatch(make([]Ref, 3)) },
			"Exchange":    func(w *Writer) { w.Exchange(make([]Ref, 3)) },
		}
		for name, call := range after {
			w := NewWriter(io.Discard)
			w.RecordBatch(writerRefs(1, 10))
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			call(w)
			if err := w.Flush(); !errors.Is(err, errClosed) {
				t.Errorf("%s after Close: Flush = %v, want %v", name, err, errClosed)
			}
			if err := w.Close(); !errors.Is(err, errClosed) {
				t.Errorf("%s after Close: Close = %v, want %v", name, err, errClosed)
			}
		}

		bad := writerRefs(2, DefaultChunk+10)
		bad[DefaultChunk+5].Kind = numKinds
		carry := map[string]func(w *Writer){
			"RecordBatch": func(w *Writer) { w.RecordBatch(bad) },
			"Exchange":    func(w *Writer) { w.Exchange(append([]Ref(nil), bad...)) },
		}
		for name, call := range carry {
			w := NewWriter(io.Discard)
			call(w)
			if err := w.Close(); !errors.Is(err, errBadKind) {
				t.Errorf("bad kind by %s: Close = %v, want %v", name, err, errBadKind)
			}
		}
	})
}

// TestWriterCountIsRaceFree: Count may be read from another goroutine
// while records go in, and is exact once Close returns. Under -race this
// also checks that reading it is race-free.
func TestWriterCountIsRaceFree(t *testing.T) {
	refs := writerRefs(5, 4*DefaultChunk+7)
	withProcs(t, func(t *testing.T) {
		w := NewWriter(io.Discard)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := w.Count()
				if n < last || n > uint64(len(refs)) {
					t.Errorf("Count read %d after %d, with %d records in all", n, last, len(refs))
					return
				}
				last = n
				runtime.Gosched()
			}
		}()
		for off := 0; off < len(refs); off += 1000 {
			w.RecordBatch(refs[off:min(off+1000, len(refs))])
		}
		err := w.Close()
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if n := w.Count(); n != uint64(len(refs)) {
			t.Fatalf("Count after Close = %d, want %d", n, len(refs))
		}
	})
}

// waitGoroutines waits up to a second for the goroutine count to fall to
// want: a consumer goroutine finishes a moment after it signals done.
func waitGoroutines(t *testing.T, want int, after string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %s, want %d", runtime.NumGoroutine(), after, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterLeavesNoGoroutine: Flush and Close stop the pipeline's
// goroutine, and at GOMAXPROCS=1 the Writer never starts one.
func TestWriterLeavesNoGoroutine(t *testing.T) {
	refs := writerRefs(9, 2*DefaultChunk)
	withProcs(t, func(t *testing.T) {
		base := runtime.NumGoroutine()
		w := NewWriter(io.Discard)
		w.RecordBatch(refs)
		want := base + 1
		if runtime.GOMAXPROCS(0) == 1 {
			want = base
		}
		if n := runtime.NumGoroutine(); n != want {
			t.Fatalf("%d goroutines while recording, want %d", n, want)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base, "Flush")
		w.Exchange(append([]Ref(nil), refs...))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base, "Close")
		if n := w.Count(); n != uint64(2*len(refs)) {
			t.Fatalf("Count = %d, want %d", n, 2*len(refs))
		}
	})
}
