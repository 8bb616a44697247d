// Package trace provides the address-reference layer of the reproduction:
// the moral equivalent of the Pixie instrumentation pipeline the paper used
// to feed its modified DineroIII simulator.
//
// Instrumented ("traced") kernels emit a stream of Ref records — instruction
// fetches, loads, and stores over a simulated virtual address space — to a
// Recorder. Recorders either count, forward to a cache hierarchy, or encode
// the stream to a compact binary format that cmd/tracesim can replay.
package trace

import "fmt"

// Kind discriminates reference records, mirroring the three classes a Pixie
// trace distinguishes.
type Kind uint8

const (
	// IFetch is an instruction fetch.
	IFetch Kind = iota
	// Load is a data read.
	Load
	// Store is a data write.
	Store
	numKinds
)

// String returns the conventional short name of the reference kind.
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Ref is a single memory reference: a virtual byte address, a kind, and
// the access size in bytes. Addr comes first so the two one-byte fields
// share its trailing padding: the record is 16 bytes, not the 24 that a
// leading Kind (padded out to Addr's 8-byte alignment) would cost. Every
// CPU buffer, pipeline chunk and decoded batch is a []Ref, so the field
// order sets how much memory a reference stream holds in flight.
type Ref struct {
	Addr uint64
	Kind Kind
	Size uint8
}

// Recorder consumes a reference stream. Implementations must tolerate
// arbitrary interleavings of kinds; they are not required to be safe for
// concurrent use.
type Recorder interface {
	// Record consumes one reference.
	Record(r Ref)
}

// BatchRecorder is an optional extension of Recorder for consumers that
// can process a chunk of references in one call, turning one virtual
// dispatch per reference into one per chunk. The batch must be consumed
// in slice order and produce state byte-identical to recording each
// element individually; implementations must not retain or mutate the
// slice after returning.
type BatchRecorder interface {
	Recorder
	// RecordBatch consumes refs in order.
	RecordBatch(refs []Ref)
}

// BufferExchanger is an optional extension of BatchRecorder for
// consumers that can take ownership of the producer's buffer: Exchange
// consumes buf exactly like RecordBatch would, but instead of the caller
// keeping the slice, ownership transfers to the consumer, which hands
// back a zero-length buffer (usually a previously consumed one) for the
// producer to refill. A producer/consumer pair that both speak Exchange
// moves references through a cycle of recycled buffers with no per-batch
// copy — the difference between memcpy-bound and wire-speed hand-off.
type BufferExchanger interface {
	BatchRecorder
	// Exchange consumes buf (the consumer may retain it) and returns a
	// zero-length buffer the caller now owns. The returned buffer's
	// capacity may differ from buf's.
	Exchange(buf []Ref) []Ref
}

// Exchange delivers buf to rec and returns the buffer the caller should
// record into next: a swapped buffer when rec implements BufferExchanger,
// otherwise buf itself (re-sliced empty) after a RecordBatch copy. The
// swapped buffer is re-clamped to zero length here rather than trusted:
// an exchanger that hands back a recycled buffer without re-slicing it
// would otherwise leave already-consumed records in place for the caller
// to append after — an oversized batch replaying stale references.
func Exchange(rec Recorder, buf []Ref) []Ref {
	if ex, ok := rec.(BufferExchanger); ok {
		return ex.Exchange(buf)[:0]
	}
	RecordBatch(rec, buf)
	return buf[:0]
}

// DefaultChunk is the reference-buffer size used by batching producers
// (sim.CPU, Pipeline). 4096 16-byte records is 64 KiB — large enough to
// amortize dispatch, small enough to stay cache-resident.
const DefaultChunk = 4096

// RecordBatch delivers refs to rec in order, using the batch fast path
// when rec implements BatchRecorder and falling back to one Record call
// per reference otherwise.
func RecordBatch(rec Recorder, refs []Ref) {
	if br, ok := rec.(BatchRecorder); ok {
		br.RecordBatch(refs)
		return
	}
	for i := range refs {
		rec.Record(refs[i])
	}
}

// Counts tallies a reference stream by kind. The zero value is ready to use.
type Counts struct {
	ByKind [numKinds]uint64
}

var _ BatchRecorder = (*Counts)(nil)

// Record implements Recorder.
func (c *Counts) Record(r Ref) { c.ByKind[r.Kind]++ }

// RecordBatch implements BatchRecorder.
func (c *Counts) RecordBatch(refs []Ref) {
	for i := range refs {
		c.ByKind[refs[i].Kind]++
	}
}

// IFetches returns the number of instruction fetches recorded.
func (c *Counts) IFetches() uint64 { return c.ByKind[IFetch] }

// Loads returns the number of loads recorded.
func (c *Counts) Loads() uint64 { return c.ByKind[Load] }

// Stores returns the number of stores recorded.
func (c *Counts) Stores() uint64 { return c.ByKind[Store] }

// DataRefs returns loads plus stores, the paper's "D references" row.
func (c *Counts) DataRefs() uint64 { return c.Loads() + c.Stores() }

// Total returns the total number of references of all kinds.
func (c *Counts) Total() uint64 { return c.IFetches() + c.DataRefs() }

// Add accumulates another tally into c.
func (c *Counts) Add(o Counts) {
	for i := range c.ByKind {
		c.ByKind[i] += o.ByKind[i]
	}
}

// Tee forwards every reference to each of its recorders in order.
type Tee []Recorder

var _ BatchRecorder = Tee(nil)

// Record implements Recorder.
func (t Tee) Record(r Ref) {
	for _, rec := range t {
		rec.Record(r)
	}
}

// RecordBatch implements BatchRecorder, forwarding the chunk to each
// recorder in order (batch-capable recorders get it in one call).
func (t Tee) RecordBatch(refs []Ref) {
	for _, rec := range t {
		RecordBatch(rec, refs)
	}
}

// Discard is a Recorder that drops every reference.
var Discard Recorder = discard{}

type discard struct{}

func (discard) Record(Ref) {}

func (discard) RecordBatch([]Ref) {}

// Filter forwards only references matching Keep to Next.
type Filter struct {
	Next Recorder
	Keep func(Ref) bool
}

var _ BatchRecorder = (*Filter)(nil)

// Record implements Recorder.
func (f *Filter) Record(r Ref) {
	if f.Keep(r) {
		f.Next.Record(r)
	}
}

// RecordBatch implements BatchRecorder, forwarding maximal kept runs so a
// batch-capable Next still sees chunks rather than single records.
func (f *Filter) RecordBatch(refs []Ref) {
	start := -1
	for i := range refs {
		if f.Keep(refs[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			RecordBatch(f.Next, refs[start:i])
			start = -1
		}
	}
	if start >= 0 {
		RecordBatch(f.Next, refs[start:])
	}
}

// FuncRecorder adapts a function to the Recorder interface.
type FuncRecorder func(Ref)

// Record implements Recorder.
func (f FuncRecorder) Record(r Ref) { f(r) }
