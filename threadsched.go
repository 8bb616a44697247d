// Package threadsched is a Go implementation of the cache-locality thread
// scheduling system of Philbin, Edler, Anshus, Douglas & Li, "Thread
// Scheduling for Cache Locality" (ASPLOS 1996): a user-level package for
// very fine-grained, run-to-completion threads whose scheduler reorders
// execution using per-thread address hints so that threads touching nearby
// data run consecutively, turning spatial locality into second-level-cache
// temporal locality.
//
// The package mirrors the paper's three-call interface:
//
//	s := threadsched.New(threadsched.Config{CacheSize: 2 << 20})
//	for i := 0; i < n; i++ {
//	    for j := 0; j < n; j++ {
//	        s.Fork(dotProduct, i, j,
//	            threadsched.Hint(&at[i*n]), threadsched.Hint(&b[j*n]), 0)
//	    }
//	}
//	s.Run(false)
//
// Threads with hints falling in the same k-dimensional block of the hint
// space — block dimensions summing to at most the cache size — share a
// bin, and Run executes bin by bin.
//
// The repository is also a full reproduction of the paper's evaluation:
// a trace-driven two-level cache simulator with compulsory/capacity/
// conflict classification (internal/cache), machine models of the two SGI
// systems (internal/machine), the four workloads in all their variants
// (internal/apps/...), and a harness regenerating Tables 1–9 and Figure 4
// (internal/harness, cmd/locality-bench). See DESIGN.md and
// EXPERIMENTS.md.
package threadsched

import (
	"unsafe"

	"threadsched/internal/core"
	"threadsched/internal/fault"
	"threadsched/internal/obs"
	"threadsched/internal/trace"
)

// Re-exported scheduler types; see the internal/core documentation on each
// for the full semantics.
type (
	// Scheduler is the locality thread scheduler (th_init/th_fork/th_run).
	Scheduler = core.Scheduler
	// Config parameterizes a Scheduler.
	Config = core.Config
	// Func is a thread body: the paper's f(arg1, arg2).
	Func = core.Func
	// TourOrder selects the order Run visits bins in.
	TourOrder = core.TourOrder
	// Stats reports scheduler occupancy.
	Stats = core.Stats
	// RunStats snapshots one Run call's bin occupancy.
	RunStats = core.RunStats
)

// Tour orders for Config.Tour.
const (
	// TourAllocation is the paper's ready-list order (default).
	TourAllocation = core.TourAllocation
	// TourMorton visits bins in Z-order of their block coordinates.
	TourMorton = core.TourMorton
	// TourHilbert visits bins along a 3-D Hilbert curve.
	TourHilbert = core.TourHilbert
)

// MaxHints is the number of address hints a thread may carry.
const MaxHints = core.MaxHints

// KScheduler is the arbitrary-dimensionality generalization of Scheduler
// (§2.3's k-address algorithm); KConfig parameterizes it.
type (
	KScheduler = core.KScheduler
	KConfig    = core.KConfig
)

// DepScheduler adds dependence constraints between threads — the
// extension the paper's §6 leaves open; ThreadID names a forked thread.
// It has one executor, a dataflow loop on Config.Workers workers (the
// calling goroutine alone below two).
type (
	DepScheduler = core.DepScheduler
	ThreadID     = core.ThreadID
)

// Failure model (see README "Failure model"): the context-taking run
// entry points — Scheduler.RunContext, Scheduler.RunEachContext,
// DepScheduler.RunContext — contain thread panics and report dependence
// problems as typed errors; the legacy Run entry points re-panic a
// contained *ThreadPanicError. The trace reader returns ErrCorrupt and
// ErrTruncated for damaged files.
type (
	// ThreadPanicError reports a contained thread-body panic with the
	// thread, bin, worker, and phase it happened in.
	ThreadPanicError = core.ThreadPanicError
	// DependencyCycleError reports a stuck DepScheduler run with one
	// witness cycle; matches ErrDependencyCycle.
	DependencyCycleError = core.DependencyCycleError
	// UnknownDependencyError reports a Fork whose deps named an unforked
	// thread ID; matches ErrUnknownDependency.
	UnknownDependencyError = core.UnknownDependencyError
	// TraceConsumerPanicError reports a contained trace-pipeline consumer
	// panic, surfaced by the pipeline's Close/Err.
	TraceConsumerPanicError = trace.ConsumerPanicError
)

// Sentinel errors for errors.Is; run entry points return them wrapped in
// the typed errors above.
var (
	// ErrDependencyCycle matches *DependencyCycleError.
	ErrDependencyCycle = core.ErrDependencyCycle
	// ErrUnknownDependency matches *UnknownDependencyError.
	ErrUnknownDependency = core.ErrUnknownDependency
	// ErrTraceCorrupt matches trace reads that hit a checksum, length, or
	// encoding violation.
	ErrTraceCorrupt = trace.ErrCorrupt
	// ErrTraceTruncated matches trace reads that hit a clean-looking but
	// premature end of stream (e.g. a crashed writer that never wrote the
	// trailer).
	ErrTraceTruncated = trace.ErrTruncated
)

// Deterministic fault injection (internal/fault re-exported): a seeded
// injector that fires panics, delays, stalls, and corruption at exact or
// probabilistic occurrence counts, for exercising the failure model in
// tests and soak runs. A nil *FaultInjector is fully disabled — every
// method is a no-op — so injection sites cost nothing in production code
// paths.
type (
	// FaultInjector decides, deterministically from (site, n, seed),
	// whether a fault fires.
	FaultInjector = fault.Injector
	// FaultConfig declares which sites fire, at which occurrences or with
	// what probability.
	FaultConfig = fault.Config
	// FaultSite names an injection point.
	FaultSite = fault.Site
)

// Injection sites for FaultConfig.
const (
	// FaultThreadPanic panics inside a thread body.
	FaultThreadPanic = fault.ThreadPanic
	// FaultWorkerDelay sleeps inside a worker.
	FaultWorkerDelay = fault.WorkerDelay
	// FaultPipelineStall delays a trace-pipeline consumer.
	FaultPipelineStall = fault.PipelineStall
	// FaultTraceCorrupt flips bytes in encoded trace data.
	FaultTraceCorrupt = fault.TraceCorrupt
)

// NewFaultInjector returns an injector for cfg; a zero cfg (or nil
// injector) never fires.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return fault.New(cfg) }

// Observability layer (Config.Obs): an opt-in, zero-overhead-when-absent
// bundle of per-worker metrics, a Chrome trace_event worker timeline, and
// pprof labels. Attach one to Config.Obs, run, then read
// Scheduler.Snapshot or write the timeline; see the internal/obs package
// documentation for the disabled contract and the metric glossary.
type (
	// Obs is the observability bundle; nil means disabled.
	Obs = obs.Obs
	// ObsSnapshot is a merged, JSON-serializable metrics snapshot.
	ObsSnapshot = obs.Snapshot
	// Timeline is the worker-span tracer behind Obs.Timeline.
	Timeline = obs.Timeline
)

// NewObs returns an enabled observability bundle with metrics sharded
// over the given number of tracks (use the worker count). Chain
// WithTimeline to also record worker spans.
func NewObs(tracks int) *Obs { return obs.New(tracks) }

// New returns a Scheduler configured by cfg. The zero Config is usable:
// it assumes the paper's 2 MB second-level cache.
func New(cfg Config) *Scheduler { return core.New(cfg) }

// NewK returns a k-dimensional scheduler for workloads with more than
// three address hints.
func NewK(cfg KConfig) *KScheduler { return core.NewK(cfg) }

// NewDep returns a dependence-aware scheduler: threads may name
// previously forked threads they must run after, and Run executes a
// locality-greedy topological order, independent threads clustered by
// bin.
func NewDep(cfg Config) *DepScheduler { return core.NewDep(cfg) }

// NewForCache returns a Scheduler with default parameters for a
// second-level cache of the given byte size.
func NewForCache(cacheSize uint64) *Scheduler {
	return core.New(core.Config{CacheSize: cacheSize})
}

// DefaultBlockSize returns the default per-dimension block size for a
// cache of the given size scheduled over dims hint dimensions.
func DefaultBlockSize(cacheSize uint64, dims int) uint64 {
	return core.DefaultBlockSize(cacheSize, dims)
}

// Hint converts a pointer into a scheduling hint: the address of the data
// the thread will touch, as in the paper's th_fork(h1, h2, h3) interface.
// (Go's garbage collector does not move heap objects, so the address is a
// stable locality proxy for the duration of a fork/run cycle; hints are
// never dereferenced.) Synthetic hints — any uint64 that preserves the
// data's relative layout — work equally well.
func Hint[T any](p *T) uint64 {
	return uint64(uintptr(unsafe.Pointer(p)))
}
