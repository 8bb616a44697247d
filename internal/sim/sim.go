// Package sim provides the execution substrate for the instrumented
// ("traced") workload variants: a model CPU that emits instruction-fetch
// and data references to a trace.Recorder while real computation proceeds
// on real Go values. It plays the role Pixie instrumentation played in the
// paper: the same algorithm produces both its numeric result and its
// address trace.
//
// Instruction fetches are emitted at I-line granularity: executing a basic
// block touches each instruction-cache line the block covers once, while
// the full instruction count accumulates separately. This preserves
// first-level instruction cache miss counts exactly (consecutive fetches
// within one line can miss at most once) at a fraction of the trace
// volume, and the paper's "I fetches" table rows come from the precise
// counter.
package sim

import (
	"context"

	"threadsched/internal/arena"
	"threadsched/internal/obs"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// WordSize is the size of the double-precision values all four workloads
// operate on.
const WordSize = 8

// DefaultILine is the granularity at which Exec emits instruction-fetch
// references; 32 bytes is the smallest I-line among the modelled machines,
// so miss counts are exact for both.
const DefaultILine = 32

// InstrBytes is the size of one instruction on the modelled MIPS systems.
const InstrBytes = 4

// CPU is the model processor: it counts instructions and forwards memory
// references to a recorder, either one at a time (the default) or through
// a fixed-size reference buffer drained in chunks (see Buffer).
type CPU struct {
	rec trace.Recorder
	// ex is rec's BufferExchanger side, cached at construction; when
	// non-nil, buffer drains swap the buffer with the recorder instead of
	// copying out of it, so a buffered CPU feeding an exchanging consumer
	// (trace.Pipeline) moves references with zero copies.
	ex trace.BufferExchanger
	// buf, when non-nil, batches references: emits append here and the
	// full buffer is handed to the recorder as one RecordBatch call. The
	// recorder observes exactly the emission order, just later, so
	// buffered and unbuffered runs produce identical results once Flush
	// has been called.
	buf []trace.Ref
	// mRefs counts emitted references (sim.refs) when observability is
	// attached; nil otherwise. Buffered CPUs count whole batches at drain
	// time so the per-reference hot path stays untouched.
	mRefs    *obs.Counter
	obsTrack int
	// Instructions is the number of instructions executed via Exec.
	Instructions uint64
	// TextBase is the base address of the simulated text segment.
	TextBase uint64
	// ctx, when non-nil, cancels the run at emission boundaries (see
	// WithCancel in cancel.go); sinceCheck strides the unbuffered path's
	// context checks.
	ctx        context.Context
	sinceCheck int
	// f64s and refs, when non-nil, supply the workload arrays (NewF64,
	// NewMatrix) and the reference buffer (Buffer) from a job's arena;
	// see WithArena.
	f64s *arena.Lease[float64]
	refs *arena.Lease[trace.Ref]
}

// NewCPU returns a CPU recording to rec; a nil rec discards references
// (useful for dry runs that only need instruction counts).
func NewCPU(rec trace.Recorder) *CPU {
	if rec == nil {
		rec = trace.Discard
	}
	c := &CPU{rec: rec, TextBase: 0x0040_0000}
	c.ex, _ = rec.(trace.BufferExchanger)
	return c
}

// Recorder returns the recorder this CPU emits to.
func (c *CPU) Recorder() trace.Recorder { return c.rec }

// Observe counts this CPU's emitted references into the registry's
// sim.refs counter on the given track, and returns the CPU. A nil Obs
// leaves the CPU disabled. On a buffered CPU the count is maintained only
// at batch-drain boundaries (call Flush before reading a snapshot); an
// unbuffered CPU pays one nil-check per reference.
func (c *CPU) Observe(o *obs.Obs, track int) *CPU {
	c.mRefs = o.Registry().Counter("sim.refs")
	c.obsTrack = track
	return c
}

// WithArena draws this CPU's workload arrays (NewF64, NewMatrix) and its
// reference buffer (Buffer) from the given leases instead of allocating
// them, and returns the CPU. Call it before Buffer and before the first
// array is built. The caller releases the leases once the run is over and
// nothing reads the arrays any more; nil leases allocate as usual.
func (c *CPU) WithArena(f64s *arena.Lease[float64], refs *arena.Lease[trace.Ref]) *CPU {
	c.f64s, c.refs = f64s, refs
	return c
}

// Buffer switches the CPU to batched emission with an n-reference buffer
// (n <= 0 selects trace.DefaultChunk) and returns the CPU. The caller
// must call Flush after the workload finishes and before reading results
// out of the recorder.
func (c *CPU) Buffer(n int) *CPU {
	c.Flush()
	if n <= 0 {
		n = trace.DefaultChunk
	}
	c.buf = c.refs.Make(n)[:0]
	return c
}

// Flush drains the reference buffer to the recorder. It is a no-op on an
// unbuffered CPU.
func (c *CPU) Flush() {
	if len(c.buf) > 0 {
		c.drain()
	}
}

// drain hands the full buffer to the recorder: a buffer swap when the
// recorder exchanges (no copy; the CPU refills whichever empty buffer
// comes back), a RecordBatch otherwise. The swapped-in buffer's length is
// clamped to zero here rather than trusted: an exchanger that returns a
// recycled buffer without re-slicing it would otherwise leave consumed
// records in place, and the CPU would append after them — emitting
// oversized batches that replay stale references.
func (c *CPU) drain() {
	c.checkCancel()
	c.mRefs.Add(c.obsTrack, uint64(len(c.buf)))
	if c.ex != nil {
		c.buf = c.ex.Exchange(c.buf)[:0]
		return
	}
	trace.RecordBatch(c.rec, c.buf)
	c.buf = c.buf[:0]
}

// emit delivers one reference, through the buffer when batching.
func (c *CPU) emit(r trace.Ref) {
	if c.buf == nil {
		c.recordCancellable(r)
		return
	}
	c.buf = append(c.buf, r)
	if len(c.buf) == cap(c.buf) {
		c.drain()
	}
}

// Exec models executing a basic block of n instructions whose first
// instruction lives at text offset pc (in bytes, relative to TextBase).
// One instruction-fetch reference is emitted per I-line the block covers.
func (c *CPU) Exec(pc uint64, n int) {
	if n <= 0 {
		return
	}
	c.Instructions += uint64(n)
	start := c.TextBase + pc
	end := start + uint64(n)*InstrBytes - 1
	for line := start &^ (DefaultILine - 1); line <= end; line += DefaultILine {
		addr := line
		if addr < start {
			addr = start
		}
		c.emit(trace.Ref{Kind: trace.IFetch, Addr: addr, Size: InstrBytes})
	}
}

// Load emits a data-read reference.
func (c *CPU) Load(addr uint64, size uint8) {
	c.emit(trace.Ref{Kind: trace.Load, Addr: addr, Size: size})
}

// Store emits a data-write reference.
func (c *CPU) Store(addr uint64, size uint8) {
	c.emit(trace.Ref{Kind: trace.Store, Addr: addr, Size: size})
}

// F64 is a simulated array of float64: real values backed by a simulated
// address range, so every access can both compute and emit a reference.
type F64 struct {
	cpu  *CPU
	base uint64
	data []float64
}

// NewF64 allocates an n-element array in the address space, aligned to the
// word size (arrays deliberately do not start page- or line-aligned by
// default; callers can pre-align the space if an experiment needs it).
// The backing slice is zeroed, and comes from the CPU's arena when it has
// one (see WithArena).
func NewF64(cpu *CPU, as *vm.AddressSpace, n int) *F64 {
	return &F64{
		cpu:  cpu,
		base: as.Alloc(uint64(n)*WordSize, WordSize),
		data: cpu.f64s.Make(n),
	}
}

// Len returns the element count.
func (a *F64) Len() int { return len(a.data) }

// Base returns the array's simulated base address.
func (a *F64) Base() uint64 { return a.base }

// Addr returns the simulated address of element i.
func (a *F64) Addr(i int) uint64 { return a.base + uint64(i)*WordSize }

// Load reads element i, emitting a load reference.
func (a *F64) Load(i int) float64 {
	a.cpu.Load(a.Addr(i), WordSize)
	return a.data[i]
}

// Store writes element i, emitting a store reference.
func (a *F64) Store(i int, v float64) {
	a.cpu.Store(a.Addr(i), WordSize)
	a.data[i] = v
}

// Peek reads element i without emitting a reference (register-resident
// value, or test inspection).
func (a *F64) Peek(i int) float64 { return a.data[i] }

// Poke writes element i without emitting a reference.
func (a *F64) Poke(i int, v float64) { a.data[i] = v }

// Data exposes the backing slice for initialization and verification.
func (a *F64) Data() []float64 { return a.data }

// Matrix is a simulated 2-D float64 matrix. Storage order is configurable
// because the paper's Fortran programs are column-major while the C
// N-body program is row-major ("Either layout works with our scheduler",
// §4).
type Matrix struct {
	arr        *F64
	rows, cols int
	colMajor   bool
}

// NewMatrix allocates a rows×cols matrix in the address space.
func NewMatrix(cpu *CPU, as *vm.AddressSpace, rows, cols int, colMajor bool) *Matrix {
	return &Matrix{
		arr:      NewF64(cpu, as, rows*cols),
		rows:     rows,
		cols:     cols,
		colMajor: colMajor,
	}
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

func (m *Matrix) index(i, j int) int {
	if m.colMajor {
		return j*m.rows + i
	}
	return i*m.cols + j
}

// Addr returns the simulated address of element (i, j).
func (m *Matrix) Addr(i, j int) uint64 { return m.arr.Addr(m.index(i, j)) }

// Load reads element (i, j), emitting a load.
func (m *Matrix) Load(i, j int) float64 { return m.arr.Load(m.index(i, j)) }

// Store writes element (i, j), emitting a store.
func (m *Matrix) Store(i, j int, v float64) { m.arr.Store(m.index(i, j), v) }

// Peek reads element (i, j) without a reference.
func (m *Matrix) Peek(i, j int) float64 { return m.arr.Peek(m.index(i, j)) }

// Poke writes element (i, j) without a reference.
func (m *Matrix) Poke(i, j int, v float64) { m.arr.Poke(m.index(i, j), v) }

// Data exposes the backing slice in storage order.
func (m *Matrix) Data() []float64 { return m.arr.Data() }

// ColMajor reports the storage order.
func (m *Matrix) ColMajor() bool { return m.colMajor }
