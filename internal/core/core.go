// Package core implements the paper's primary contribution: a user-level,
// run-to-completion, fine-grained thread package whose scheduler orders
// thread execution for second-level cache locality using per-thread
// address hints (§2–§3 of the paper).
//
// A thread is a function pointer plus two integer arguments and up to
// three address hints. At fork time the hints are mapped, block-wise, into
// a bin: the hint space is divided into k-dimensional blocks whose
// per-dimension size is at most 1/k of the cache size, so the union of the
// data touched by threads sharing a block fits in the cache. Bins are
// organized in a hash table (shift-and-mask per dimension, chaining for
// collisions) and linked onto a ready list in allocation order. Run walks
// the ready list, executing every thread of one bin before moving to the
// next, which is what converts hint locality into temporal locality.
//
// The package mirrors the paper's three-call interface —
// th_init/th_fork/th_run — as Scheduler.Init, Scheduler.Fork, and
// Scheduler.Run, and keeps the paper's low-overhead design: thread records
// live in batched thread groups recycled through free lists, so a fork is
// a hash, a couple of pointer moves, and three word stores.
//
// Beyond the paper's implementation it also provides, as clearly marked
// extensions used by the ablation experiments: alternative bin tour orders
// (Morton and Hilbert space-filling curves instead of allocation order),
// optional symmetric hint folding (§2.3's "reduce the number of bins by
// 50%"), and parallel bin execution across workers (the symmetric
// multiprocessor extension the paper's §7 leaves as future work).
//
// # Parallel run
//
// Config.Workers > 1 extends the §7 SMP conjecture: Run executes bins in
// parallel. The dispatcher partitions the bin tour into contiguous
// segments, one per worker, weighted by per-bin thread count, so
// spatially adjacent bins (which the Morton/Hilbert tours deliberately
// place next to each other, and which therefore share cache lines) stay
// on one worker's cache. Idle workers rebalance by stealing the upper
// half of the largest remaining segment — stolen work is itself a
// contiguous tour run. Owners claim bins in chunks of at most
// DefaultStealChunk. This is the only parallel dispatcher: a
// one-bin-at-a-time atomic-counter baseline and a topology-aware bin tree
// were both measured against it and deleted, the first because it
// scatters tour neighbours across caches (internal/smp.CompareDispatch
// keeps that finding), the second because it never beat the flat
// segments. Fork is single-producer, as the paper's th_fork is: a sharded
// concurrent-fork path was measured slower than one forking goroutine
// and deleted.
//
// Run's worker goroutines persist in a pool across Run calls (amortizing
// spawn cost for keep=true re-runs); Close releases them. The bin tour is
// memoized between runs and recomputed only when a new bin was allocated.
//
// # Dependences
//
// DepScheduler adds what §6 leaves open: a thread may name earlier
// threads it must run after. It has one executor, a dataflow loop that
// runs a thread as soon as its last predecessor finishes and otherwise
// takes runnable threads in (bin, ThreadID) order, so independent
// threads stay clustered by bin. Workers ≤ 1 runs that loop on the
// calling goroutine; Workers > 1 runs it on the worker pool.
//
// # Thread groups
//
// A bin's first thread group holds FirstGroupSize records and each later
// group in the same bin doubles the previous one, up to Config.GroupSize.
// A bin therefore pays for about what it holds — a one-thread bin costs
// one small group, not a full one — while a dense bin still ends in
// full-size groups. Released groups go back to one free list per size
// class, so a steady-state fork/run cycle allocates nothing.
//
// # Thread-safety contract
//
// The zero configuration is the paper's sequential-program facility:
// nothing may be called concurrently. Fork is single-producer; Workers
// parallelizes Run only:
//
//   - Workers > 1 runs thread bodies concurrently with each other (every
//     bin still executes entirely on one worker), so bodies must be safe
//     to run in parallel. Run itself must still be called from one
//     goroutine at a time, and Fork must never overlap it: Fork panics
//     if it observes a Run in progress.
//   - Stats, LastRun and Pending may be called during the
//     thread-execution phase of a Run, whose bin population is frozen;
//     a caller must synchronize with the end of a keep=false Run, whose
//     release recycles the bins they walk.
//   - RunEach is always sequential regardless of Workers.
package core

import (
	"fmt"
	"math/bits"

	"threadsched/internal/obs"
)

// Func is the thread body: the paper's f(arg1, arg2).
type Func func(arg1, arg2 int)

// MaxHints is the number of address hints a thread may carry. The paper's
// package implements the three-dimensional case (§3); unused hints are
// passed as zero, exactly as in th_fork.
const MaxHints = 3

// TourOrder selects the order in which Run visits non-empty bins.
type TourOrder int

const (
	// TourAllocation visits bins in the order they were first used — the
	// paper's ready-list order.
	TourAllocation TourOrder = iota
	// TourMorton visits bins in Morton (Z-order) of their block
	// coordinates; an ablation of §2.3's "traversing the bins along some
	// path, preferably the shortest one".
	TourMorton
	// TourHilbert visits bins along a 3-D Hilbert curve over their block
	// coordinates, the shortest-tour heuristic among the three.
	TourHilbert
)

// String names the tour order.
func (t TourOrder) String() string {
	switch t {
	case TourAllocation:
		return "allocation"
	case TourMorton:
		return "morton"
	case TourHilbert:
		return "hilbert"
	default:
		return fmt.Sprintf("TourOrder(%d)", int(t))
	}
}

// Defaults mirroring the C package's configuration-dependent defaults.
const (
	// DefaultHashDim is the default per-dimension size of the 3-D hash
	// table of bin pointers (DefaultHashDim³ cells total).
	DefaultHashDim = 16
	// DefaultGroupSize is the capacity of a bin's largest thread groups;
	// grouping amortizes allocation and keeps fork overhead flat (§3.2).
	DefaultGroupSize = 256
	// FirstGroupSize is the capacity of a bin's first thread group (or
	// GroupSize, if that is smaller); each later group in the bin doubles
	// the previous one, up to GroupSize.
	FirstGroupSize = 16
)

// Config parameterizes a Scheduler. The zero value is usable once a cache
// size is known; call Init (th_init) to override block and hash sizes.
type Config struct {
	// CacheSize is the capacity in bytes of the cache being scheduled for
	// (the largest cache, per §2.3). It determines the default block
	// size. If zero, DefaultCacheSize is assumed.
	CacheSize uint64
	// BlockSize is the per-dimension block size in bytes; 0 selects the
	// default CacheSize/MaxHints rounded down to a power of two
	// ("dimension sizes … sum … the same as the second-level cache
	// size", §3.2).
	// Non-power-of-two values are rounded down to a power of two so the
	// hint-to-block mapping stays a shift.
	BlockSize uint64
	// HashDim is the per-dimension hash table size (power of two); 0
	// selects DefaultHashDim.
	HashDim int
	// GroupSize is the capacity of a bin's largest thread groups: a bin's
	// groups grow from FirstGroupSize by doubling up to it. 0 selects
	// DefaultGroupSize.
	GroupSize int
	// FoldSymmetric places threads with permuted hints — (hi, hj) and
	// (hj, hi) — in the same bin by sorting block coordinates (§2.3).
	FoldSymmetric bool
	// Tour selects the bin traversal order; the zero value is the
	// paper's allocation order.
	Tour TourOrder
	// Workers > 1 enables the SMP extension: bins are executed in
	// parallel by this many workers, each bin entirely on one worker.
	// Each worker starts on a contiguous, thread-weighted segment of the
	// bin tour and refills by stealing half of the largest remaining one.
	// Thread bodies must then be safe to run concurrently with each
	// other. 0 or 1 runs everything on the calling goroutine.
	Workers int
	// Obs attaches the observability layer: per-worker scheduler metrics
	// (steals, bins and threads per worker, segment drain times), worker
	// timeline spans, and pprof labels on the worker pool. Nil (the
	// default) disables all of it; the disabled path is a nil-check fast
	// path that performs no timing calls and no allocation.
	Obs *obs.Obs
}

// DefaultCacheSize is used when a Config specifies no cache size; it is
// the R8000's 2 MB second-level cache, the paper's primary machine.
const DefaultCacheSize = 2 << 20

// DefaultStealChunk bounds the bins a worker claims from its segment in
// one take; small enough that a nearly-drained segment still exposes
// work to thieves, large enough to amortize the claim's CAS.
const DefaultStealChunk = 16

// DefaultBlockSize returns the default per-dimension block size for a
// cache of the given size scheduled over dims dimensions: the largest
// power of two not exceeding cacheSize/dims.
func DefaultBlockSize(cacheSize uint64, dims int) uint64 {
	if dims <= 0 {
		dims = MaxHints
	}
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	per := cacheSize / uint64(dims)
	if per == 0 {
		return 1
	}
	return floorPow2(per)
}

func floorPow2(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	return 1 << (63 - uint(bits.LeadingZeros64(v)))
}
