package trace

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultPipelineDepth is the number of in-flight chunks a Pipeline's ring
// holds before the producer blocks. Small on purpose: the bound keeps the
// working set of buffered references cache-sized and throttles a fast
// producer to the consumer's pace instead of ballooning memory. Two is
// enough for one producer and one consumer to overlap. A pipeline fed by
// Exchange circulates at most depth+2 chunk buffers (the ring, the one in
// the producer's hand and the one being drained): 4 × 64 KiB of
// references at the default depth and DefaultChunk.
const DefaultPipelineDepth = 2

// Pipeline decouples reference generation from reference consumption
// inside one experiment: the producer (the traced workload) records into
// fixed-size chunks that travel over a bounded single-producer
// single-consumer ring to a goroutine draining into dst. Chunks are
// recycled through a free list, so a steady-state pipeline allocates
// nothing per reference, and a producer that speaks Exchange hands its
// buffers over without copying a single record.
//
// Ordering is the exactness contract: one producer, one consumer, and a
// FIFO ring mean dst observes exactly the recorded sequence, so results
// are bit-identical to recording into dst directly. Pipeline itself is a
// Recorder (and BatchRecorder, and BufferExchanger); it is NOT safe for
// concurrent producers. Call Close to flush the final partial chunk and
// wait for the consumer to drain before reading results out of dst.
//
// On a single-processor runtime (GOMAXPROCS=1) a consumer goroutine buys
// no overlap — producer and consumer time-slice one P and every hand-off
// is a context switch. A pipeline constructed with default depth
// (depth <= 0) detects that case and runs inline: no goroutine, no ring,
// chunks drain synchronously on the producer's call, and the consumer
// panic containment contract holds unchanged. An explicit depth > 0
// always selects the concurrent ring, whatever the processor count.
type Pipeline struct {
	dst    Recorder
	ch     chan []Ref
	free   chan []Ref
	chunk  int
	cur    []Ref
	inline bool
	done   chan struct{}
	close  sync.Once
	// Consumer fault containment: a panic in dst is recovered into perr
	// and flips failed, after which the consumer keeps draining the ring
	// but discards chunks — the producer therefore never blocks against a
	// dead consumer, and Close surfaces the error once quiesced.
	failed atomic.Bool
	mu     sync.Mutex
	perr   *ConsumerPanicError
	// Producer-side cancellation (see WithContext): once ctx expires,
	// cancelled flips, chunks are discarded instead of shipped, and cerr
	// carries ctx's error to Close/Err.
	ctx       context.Context
	cancelled atomic.Bool
	cerr      error
	// met is the optional observability attachment (see Observe); its
	// zero value is the disabled state.
	met pipeObs
}

// ConsumerPanicError is the error Pipeline.Close (and Err) report when
// the destination Recorder panicked on the consumer goroutine. References
// recorded after the panic are discarded, not delivered.
type ConsumerPanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the consumer goroutine's stack, captured at recovery.
	Stack []byte
}

// Error describes the panic.
func (e *ConsumerPanicError) Error() string {
	return fmt.Sprintf("trace: pipeline consumer panicked: %v", e.Value)
}

var _ BufferExchanger = (*Pipeline)(nil)

// NewPipeline starts a pipeline draining into dst. chunk is the references
// per ring slot (<=0 selects DefaultChunk) and depth the ring capacity in
// chunks (<=0 selects DefaultPipelineDepth — or inline draining when the
// runtime has a single processor; see the type comment).
func NewPipeline(dst Recorder, chunk, depth int) *Pipeline {
	inline := depth <= 0 && runtime.GOMAXPROCS(0) == 1
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if depth <= 0 {
		depth = DefaultPipelineDepth
	}
	// cur is allocated lazily on the first Record: producers that only
	// RecordBatch or Exchange never pay for (or zero) a chunk they will
	// not use.
	p := &Pipeline{
		dst:   dst,
		chunk: chunk,
		done:  make(chan struct{}),
	}
	if inline {
		p.inline = true
		return p
	}
	p.ch = make(chan []Ref, depth)
	// The free list holds every buffer not in the ring or the producer's
	// hand: depth in flight + the producer's current + one being drained.
	p.free = make(chan []Ref, depth+2)
	go p.consume()
	return p
}

// next returns an empty buffer for the producer: a recycled one when the
// free list has any, a fresh allocation only during warmup (or when a
// chunk was retired while the list was momentarily full).
func (p *Pipeline) next() []Ref {
	select {
	case b := <-p.free:
		return b[:0]
	default:
		return make([]Ref, 0, p.chunk)
	}
}

func (p *Pipeline) consume() {
	defer close(p.done)
	for chunk := range p.ch {
		if !p.failed.Load() {
			p.drainSafe(chunk)
		}
		select {
		case p.free <- chunk:
		default:
		}
	}
}

// drainSafe delivers one chunk to dst, recovering a dst panic into the
// pipeline's error state. Only the first panic is kept; the ring keeps
// draining either way so the producer side stays unblocked.
func (p *Pipeline) drainSafe(chunk []Ref) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.perr == nil {
				p.perr = &ConsumerPanicError{Value: r, Stack: debug.Stack()}
			}
			p.mu.Unlock()
			p.failed.Store(true)
		}
	}()
	p.drainChunk(chunk)
}

// flushInline is the inline mode's counterpart of send-then-consume: one
// chunk delivered synchronously on the producer's call, with the same
// containment (a dst panic flips failed; later chunks are discarded) and
// the same pipe.chunks accounting.
func (p *Pipeline) flushInline(chunk []Ref) {
	if p.noteCancel() {
		return
	}
	if p.met.o != nil {
		p.met.chunks.Inc(p.met.track)
	}
	if !p.failed.Load() {
		p.drainSafe(chunk)
	}
}

// WithContext bounds the producer side of the pipeline by ctx and returns
// the pipeline. Without it, a producer blocked on a full ring waits for
// the consumer indefinitely — a cancelled job could stall forever behind
// a slow or wedged destination. With it, a blocked send returns as soon
// as ctx is done, the pipeline flips to a discard state (further chunks
// are dropped, exactly as after a consumer panic), and Close/Err report
// ctx's error; a consumer panic still takes precedence, since it
// explains the state better. Like Observe, WithContext must be called
// before the first record. A nil ctx leaves cancellation off.
func (p *Pipeline) WithContext(ctx context.Context) *Pipeline {
	p.ctx = ctx
	return p
}

// noteCancel reports whether the pipeline's context is done, latching the
// error for Close/Err the first time it is observed.
func (p *Pipeline) noteCancel() bool {
	if p.ctx == nil {
		return false
	}
	if p.cancelled.Load() {
		return true
	}
	err := p.ctx.Err()
	if err == nil {
		return false
	}
	p.mu.Lock()
	if p.cerr == nil {
		p.cerr = err
	}
	p.mu.Unlock()
	p.cancelled.Store(true)
	return true
}

// Err returns the pipeline's failure, if any, without closing it. A
// *ConsumerPanicError means dst panicked; a context error means the
// producer was cancelled mid-stream. Either way every reference since has
// been discarded.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.perr != nil {
		return p.perr
	}
	return p.cerr
}

// Record implements Recorder on the producer side.
func (p *Pipeline) Record(r Ref) {
	if cap(p.cur) == 0 {
		p.cur = p.next()
	}
	p.cur = append(p.cur, r)
	if len(p.cur) == cap(p.cur) {
		p.ship()
	}
}

// RecordBatch implements BatchRecorder on the producer side. The caller
// keeps ownership of refs (producers reuse their buffers), so on the
// concurrent path the chunk is copied into ring slots rather than
// aliased; producers that can give their buffer up should use Exchange
// instead and skip the copy. The inline path delivers refs to dst
// directly — no ring, no copy.
func (p *Pipeline) RecordBatch(refs []Ref) {
	if p.inline {
		p.shipCur()
		if len(refs) > 0 {
			p.flushInline(refs)
		}
		return
	}
	for len(refs) > 0 {
		if cap(p.cur) == 0 {
			p.cur = p.next()
		}
		n := copy(p.cur[len(p.cur):cap(p.cur)], refs)
		p.cur = p.cur[:len(p.cur)+n]
		refs = refs[n:]
		if len(p.cur) == cap(p.cur) {
			p.ship()
		}
	}
}

// Exchange implements BufferExchanger on the producer side: buf travels
// to the consumer as-is (after any partial chunk, preserving order) and
// the producer gets a recycled buffer back. The records cross the
// pipeline without being copied.
func (p *Pipeline) Exchange(buf []Ref) []Ref {
	if p.inline {
		p.shipCur()
		if len(buf) > 0 {
			p.flushInline(buf)
		}
		return buf[:0]
	}
	p.shipCur()
	if len(buf) == 0 {
		return buf
	}
	p.send(buf)
	return p.next()
}

// shipCur flushes the partial chunk accumulated by Record calls, keeping
// stream order when per-record and batched production interleave.
func (p *Pipeline) shipCur() {
	if len(p.cur) > 0 {
		p.ship()
	}
}

func (p *Pipeline) ship() {
	if p.inline {
		p.flushInline(p.cur)
		p.cur = p.cur[:0]
		return
	}
	p.send(p.cur)
	p.cur = p.next()
}

// Close flushes the partial chunk, waits for the consumer to drain the
// ring, and returns once dst has observed the full stream — or, if dst
// panicked along the way, the first *ConsumerPanicError. Idempotent; the
// Pipeline must not be recorded to afterwards. Close cannot block on a
// panicked consumer (the ring keeps draining after containment); for a
// consumer that is stuck rather than dead, use CloseContext.
func (p *Pipeline) Close() error {
	return p.CloseContext(context.Background())
}

// CloseContext is Close with a shutdown bound: if ctx expires while the
// final chunk is waiting for ring space or before the consumer finishes
// draining, it returns ctx.Err() instead of blocking forever behind a
// consumer wedged inside dst. An abandoned pipeline's consumer goroutine
// stays parked until dst returns; the references it never drained are
// lost, as the non-nil error reports. An inline pipeline has nothing to
// wait on; its CloseContext never blocks.
func (p *Pipeline) CloseContext(ctx context.Context) error {
	if p.inline {
		p.close.Do(func() {
			if len(p.cur) > 0 {
				p.flushInline(p.cur)
				p.cur = nil
			}
			close(p.done)
		})
		return p.Err()
	}
	var ctxErr error
	p.close.Do(func() {
		if len(p.cur) > 0 && !p.noteCancel() {
			select {
			case p.ch <- p.cur:
				if p.met.o != nil {
					p.met.chunks.Inc(p.met.track)
				}
			case <-ctx.Done():
				ctxErr = ctx.Err()
			}
		}
		p.cur = nil
		close(p.ch)
	})
	if ctxErr != nil {
		return ctxErr
	}
	select {
	case <-p.done:
		return p.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}
