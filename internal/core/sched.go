package core

import (
	"context"
	"math/bits"
	"sort"
	"sync/atomic"
	"unsafe"
)

// threadRec is one scheduled thread: "a void function pointer and the two
// arguments arg1 and arg2 supplied by the user to th_fork" (§3.2).
type threadRec struct {
	fn         Func
	arg1, arg2 int
}

// group batches thread records within a bin: "an array of these structures
// plus an integer to count the number of threads actually in the group and
// a pointer to the next thread group in the bin" (§3.2). A bin's groups
// grow geometrically (see newGroup), so cap(recs) names the group's size
// class.
type group struct {
	recs []threadRec
	next *group
}

// binKey is the block coordinate triple identifying a bin.
type binKey [MaxHints]uint64

// bin carries the paper's three link fields and search key (§3.2): the
// hash-collision chain, the thread-group chain, and the ready-list link.
type bin struct {
	key       binKey
	hashNext  *bin
	groups    *group // first thread group
	tail      *group // last thread group (append point)
	readyNext *bin
	threads   int
}

// Scheduler is the thread package. With the zero configuration it is the
// paper's sequential-program facility — nothing may be called
// concurrently; Config.Workers widens the contract as described in the
// package documentation.
type Scheduler struct {
	cfg        Config
	blockShift uint
	hashDim    int
	hashShift  uint // log2(hashDim); cell index is computed by shifts
	hashMask   uint64
	table      []*bin // hashDim³ cells, 3-D array flattened

	readyHead *bin
	readyTail *bin
	binsUsed  int
	pending   int

	freeBins *bin
	// freeGroups holds one free list per group size class: class c holds
	// groups of min(firstGroup<<c, GroupSize) records.
	freeGroups []*group
	firstGroup int // capacity of a bin's first group

	// tourCache memoizes the sorted bin tour between runs; it is dropped
	// on release/Init and rebuilt only when a bin was allocated since.
	tourCache []*bin
	tourStale bool

	// running flags an in-progress Run so Fork can detect — and reject
	// with a clear panic — the one overlap no mode permits.
	running atomic.Bool

	pool *workerPool // persistent parallel-run workers, lazily created

	// met holds the pre-resolved observability handles (disabled when
	// Config.Obs is nil); see internal/core/obs.go for the metric set.
	met schedObs

	totalForked uint64
	totalRun    uint64
	// runs and lastRun are written by Run/RunEach and read by Stats and
	// LastRun, which are documented callable concurrently with a live
	// Run — hence the atomics.
	runs    atomic.Uint64
	lastRun atomic.Pointer[RunStats]
}

// RunStats snapshots one Run call's bin occupancy, taken before the bins
// are released; the paper quotes exactly these figures per workload (§4.2:
// "1,048,576 threads distributed in 81 bins for an average of 12,945
// threads per bin").
type RunStats struct {
	// Threads is the number of threads executed by the run.
	Threads int
	// Bins is the number of non-empty bins visited.
	Bins int
	// MinPerBin and MaxPerBin bound the per-bin thread counts. A bin
	// exists only because a Fork placed a thread in it, so MinPerBin is
	// at least 1 whenever Bins > 0; the empty snapshot — a Run with
	// nothing forked — is all-zero and identified by Empty.
	MinPerBin, MaxPerBin int
	// AvgPerBin is Threads / Bins, or 0 for the empty snapshot.
	AvgPerBin float64
}

// Empty reports whether the snapshot is of a run that visited no bins —
// the only case in which MinPerBin and MaxPerBin read 0.
func (r RunStats) Empty() bool { return r.Bins == 0 }

// New returns a Scheduler configured by cfg.
func New(cfg Config) *Scheduler {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = DefaultGroupSize
	}
	s := &Scheduler{cfg: cfg, met: newSchedObs(cfg.Obs), firstGroup: min(FirstGroupSize, cfg.GroupSize)}
	classes := 1
	for size := s.firstGroup; size < cfg.GroupSize; size *= 2 {
		classes++
	}
	s.freeGroups = make([]*group, classes)
	s.Init(cfg.BlockSize, uint64(cfg.HashDim))
	return s
}

// Init is th_init(blocksize, hashsize): set the block size and hash table
// size, 0 selecting the configuration-dependent defaults. It may be called
// more than once; pending threads are discarded (the C package reset its
// tables on reconfiguration).
func (s *Scheduler) Init(blockSize, hashDim uint64) {
	if blockSize == 0 {
		blockSize = DefaultBlockSize(s.cfg.CacheSize, MaxHints)
	} else {
		blockSize = floorPow2(blockSize)
	}
	if hashDim == 0 {
		hashDim = DefaultHashDim
	} else {
		hashDim = floorPow2(hashDim)
	}
	s.cfg.BlockSize = blockSize
	s.blockShift = uint(bits.TrailingZeros64(blockSize))
	s.hashDim = int(hashDim)
	s.hashShift = uint(bits.TrailingZeros64(hashDim))
	s.hashMask = hashDim - 1
	s.table = make([]*bin, hashDim*hashDim*hashDim)
	s.readyHead, s.readyTail = nil, nil
	s.binsUsed = 0
	s.pending = 0
	s.freeBins = nil
	clear(s.freeGroups)
	s.tourCache = nil
	s.tourStale = false
}

// BlockSize returns the per-dimension block size currently in effect.
func (s *Scheduler) BlockSize() uint64 { return s.cfg.BlockSize }

// CacheSize returns the cache capacity the scheduler was configured for.
func (s *Scheduler) CacheSize() uint64 { return s.cfg.CacheSize }

// HashDim returns the per-dimension hash table size currently in effect.
func (s *Scheduler) HashDim() int { return s.hashDim }

// Workers returns the configured parallel-run worker count; values below
// two mean Run executes serially on the calling goroutine.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// Pending returns the number of threads forked but not yet run.
func (s *Scheduler) Pending() int { return s.pending }

// cellIndex maps a bin key to its hash-table cell. hashDim is a power of
// two, so the 3-D flattening ((k0·d + k1)·d + k2 with d = hashDim) reduces
// to shifts and masks.
func (s *Scheduler) cellIndex(key binKey) uint64 {
	return (key[0]&s.hashMask)<<(2*s.hashShift) |
		(key[1]&s.hashMask)<<s.hashShift |
		(key[2] & s.hashMask)
}

// Fork is th_fork(f, arg1, arg2, hint1, hint2, hint3): create and schedule
// a thread to call f(arg1, arg2). The hints are memory addresses used as
// scheduling hints; pass 0 for unused trailing dimensions (§3.1).
//
// Fork is single-producer: calls must not overlap each other, and Fork
// must never overlap a Run in progress; it panics if it detects the
// latter.
func (s *Scheduler) Fork(f Func, arg1, arg2 int, hint1, hint2, hint3 uint64) {
	if s.running.Load() {
		panic("core: Fork called during Run; fork and run phases must not overlap")
	}
	key := binKey{hint1 >> s.blockShift, hint2 >> s.blockShift, hint3 >> s.blockShift}
	if s.cfg.FoldSymmetric {
		sortKey(&key)
	}
	b := s.lookupBin(key)
	g := b.tail
	if g == nil || len(g.recs) == cap(g.recs) {
		g = s.newGroup(g)
		if b.tail == nil {
			b.groups = g
		} else {
			b.tail.next = g
		}
		b.tail = g
	}
	g.recs = append(g.recs, threadRec{fn: f, arg1: arg1, arg2: arg2})
	b.threads++
	s.pending++
	s.totalForked++
}

// lookupBin finds or creates the bin for key, hashing each block
// coordinate by mask into the 3-D table and chaining collisions.
func (s *Scheduler) lookupBin(key binKey) *bin {
	idx := s.cellIndex(key)
	for b := s.table[idx]; b != nil; b = b.hashNext {
		if b.key == key {
			return b
		}
	}
	b := s.newBin(key)
	b.hashNext = s.table[idx]
	s.table[idx] = b
	// "Each time a new bin is allocated, it is added to the end of this
	// [ready] list" (§3.2).
	if s.readyTail == nil {
		s.readyHead = b
	} else {
		s.readyTail.readyNext = b
	}
	s.readyTail = b
	s.binsUsed++
	s.tourStale = true
	return b
}

func (s *Scheduler) newBin(key binKey) *bin {
	b := s.freeBins
	if b != nil {
		s.freeBins = b.hashNext
		*b = bin{key: key}
		return b
	}
	return &bin{key: key}
}

// newGroup returns an empty group to follow prev in its bin: a bin's first
// group (prev nil) holds firstGroup records and each later one doubles
// its predecessor, up to GroupSize. Sparse bins thus pay for what they
// hold while dense bins still end in full-size groups (§3.2's "array of
// these structures" need not be full size).
func (s *Scheduler) newGroup(prev *group) *group {
	size, class := s.firstGroup, 0
	if prev != nil {
		size = min(2*cap(prev.recs), s.cfg.GroupSize)
		class = s.groupClass(size)
	}
	if g := s.freeGroups[class]; g != nil {
		s.freeGroups[class] = g.next
		g.next = nil
		g.recs = g.recs[:0]
		return g
	}
	return &group{recs: make([]threadRec, 0, size)}
}

// groupClass maps a group capacity to its free-list index: capacities
// below GroupSize are firstGroup times a power of two, and GroupSize
// itself is the last class.
func (s *Scheduler) groupClass(size int) int {
	if size >= s.cfg.GroupSize {
		return len(s.freeGroups) - 1
	}
	return bits.Len(uint(size/s.firstGroup)) - 1
}

// ForkBytes bounds the heap a Scheduler with the default GroupSize holds
// for threads pending threads spread over bins bins (1 ≤ bins ≤ threads).
// Each bin costs its bin record, a tour slot and its first group. A bin of
// t threads holds at most 2·t + 14 records in at most 1 + (t−1)/16
// groups: its first group, then doubling groups whose unused tail is never
// larger than the full groups before them. Groups above 512 bytes also
// carry the allocator's 8-byte header and round up to a size class, at
// most 7/6 of their records' bytes. One-thread bins meet the bound
// exactly, and are the worst case per thread.
func ForkBytes(threads, bins int) uint64 {
	const (
		rec     = uint64(unsafe.Sizeof(threadRec{}))
		grp     = uint64(unsafe.Sizeof(group{}))
		binSlot = uint64(unsafe.Sizeof(bin{})) + uint64(unsafe.Sizeof((*bin)(nil)))
	)
	if bins <= 0 {
		return 0
	}
	t, b := uint64(threads), uint64(bins)
	extra := t - b // threads beyond each bin's first
	return b*(binSlot+grp+FirstGroupSize*rec) + extra*2*rec*7/6 + extra/FirstGroupSize*grp
}

// Run is th_run(keep): run all threads that have been scheduled by Fork,
// then return. The thread specifications are destroyed if keep is false,
// or saved to allow re-execution otherwise (§3.1).
//
// Run is a thin wrapper over RunContext with a background context: if a
// thread body panics, the recovered *ThreadPanicError is re-panicked on
// the calling goroutine, so pre-containment callers observe a panic
// exactly as before — including from parallel runs, which previously
// crashed the process from a worker goroutine.
func (s *Scheduler) Run(keep bool) {
	if err := s.RunContext(context.Background(), keep); err != nil {
		panic(err)
	}
}

// RunContext is Run with fault containment and cooperative cancellation.
// A panicking thread body no longer unwinds the process: the first panic
// is recovered with its context (thread, bin, worker, phase), every
// worker quiesces at its next bin boundary, and the run returns a
// *ThreadPanicError. When ctx is cancelled, workers stop claiming bins at
// the next bin/segment boundary and RunContext returns ctx.Err(); the
// thread executing at cancellation time runs to completion (threads are
// run-to-completion, §3 — there is no preemption point inside a body).
// Cancellation wins even when it lands during the final bin: a run whose
// ctx is done returns ctx.Err() regardless of how much of the tour
// completed, so callers can rely on a nil error meaning both "all threads
// ran" and "nobody asked us to stop".
//
// On any error return the schedule is destroyed regardless of keep — part
// of it has executed, so a keep re-run could not be exact — leaving the
// scheduler empty, quiesced (worker goroutines parked in the pool, none
// leaked), and immediately reusable for a fresh Fork/Run cycle. The Runs
// counter is not incremented for a failed run.
func (s *Scheduler) RunContext(ctx context.Context, keep bool) error {
	return s.run(ctx, keep, nil)
}

// run is the body of RunContext and, with a non-nil beforeBin hook, of
// RunEachContext.
func (s *Scheduler) run(ctx context.Context, keep bool, beforeBin func(bin, threads int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	order := s.tour()
	s.snapshotRun(order)
	if err := s.executeAll(ctx, order, beforeBin); err != nil {
		s.release()
		return err
	}
	s.runs.Add(1)
	if !keep {
		s.release()
	}
	return nil
}

// executeAll runs the ordered bins, serially or across workers, holding
// the running flag for the duration (released even if a thread panics, so
// a recovered misuse leaves the scheduler reusable after Init). A non-nil
// beforeBin hook forces the serial loop and names its phase "run-each".
func (s *Scheduler) executeAll(ctx context.Context, order []*bin, beforeBin func(bin, threads int)) error {
	s.running.Store(true)
	defer s.running.Store(false)
	phase := "run"
	if beforeBin != nil {
		phase = "run-each"
	} else if s.cfg.Workers > 1 && len(order) > 1 {
		return s.runSegmented(ctx, order)
	}
	start := s.met.now()
	sp := s.met.span(0, phase)
	threads, bins := 0, 0
	var err error
	for i, b := range order {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		if beforeBin != nil {
			beforeBin(i, b.threads)
		}
		n, perr := s.runBinContained(b, i, 0, phase)
		threads += n
		bins++
		if perr != nil {
			err = perr
			break
		}
	}
	if err == nil {
		// Cancellation wins even when it lands during the final bin, so
		// serial and parallel runs agree (the parallel path's runControl
		// reports ctx.Err() after the worker barrier regardless of how
		// much of the tour completed).
		err = ctx.Err()
	}
	s.met.threadsRun.Add(0, uint64(threads))
	s.met.drainDone(0, start, bins, sp)
	return err
}

// RunEach is Run with a per-bin hook: beforeBin is invoked before each
// bin executes, with the bin's index in tour order and its thread count.
// It always runs bins sequentially on the calling goroutine (Workers is
// ignored), which is what deterministic simulations — e.g. the SMP model
// that re-routes each bin's reference stream to a different simulated
// processor — need. Like Run, it re-panics a contained thread panic.
func (s *Scheduler) RunEach(keep bool, beforeBin func(bin, threads int)) {
	if err := s.RunEachContext(context.Background(), keep, beforeBin); err != nil {
		panic(err)
	}
}

// RunEachContext is RunEach with the containment and cancellation
// semantics of RunContext: thread panics return a *ThreadPanicError, a
// cancelled ctx stops the tour at the next bin boundary with ctx.Err(),
// and any error destroys the schedule regardless of keep. Panics in the
// beforeBin hook itself are the caller's own and propagate unchanged.
func (s *Scheduler) RunEachContext(ctx context.Context, keep bool, beforeBin func(bin, threads int)) error {
	if beforeBin == nil {
		beforeBin = func(int, int) {}
	}
	return s.run(ctx, keep, beforeBin)
}

func (s *Scheduler) snapshotRun(order []*bin) {
	st := RunStats{Threads: s.pending, Bins: len(order)}
	for i, b := range order {
		if i == 0 || b.threads < st.MinPerBin {
			st.MinPerBin = b.threads
		}
		if b.threads > st.MaxPerBin {
			st.MaxPerBin = b.threads
		}
	}
	if len(order) > 0 {
		st.AvgPerBin = float64(st.Threads) / float64(len(order))
	}
	s.lastRun.Store(&st)
}

// tour returns the bins in execution order. The order is memoized: it
// changes only when a bin is allocated (Fork of a new block) or the
// schedule is destroyed, so keep=true re-runs skip the collect and sort.
func (s *Scheduler) tour() []*bin {
	stale := s.tourStale
	s.tourStale = false
	if s.tourCache != nil && !stale {
		return s.tourCache
	}
	bins := make([]*bin, 0, s.binsUsed)
	for b := s.readyHead; b != nil; b = b.readyNext {
		bins = append(bins, b)
	}
	switch s.cfg.Tour {
	case TourMorton:
		if tourOverflows(bins) {
			// Distant bins would alias under the masked single-chunk
			// curve index; use the full-width chunked compare instead.
			s.met.tourOverflow.Inc(0)
			sort.SliceStable(bins, func(i, j int) bool {
				return mortonLessWide(bins[i].key, bins[j].key)
			})
			break
		}
		sort.SliceStable(bins, func(i, j int) bool {
			return morton3(bins[i].key) < morton3(bins[j].key)
		})
	case TourHilbert:
		if tourOverflows(bins) {
			// The Hilbert transform has no exact chunked widening (curve
			// state carries across bit planes), so overflow falls back to
			// the paper's allocation order rather than silently aliasing
			// distant bins onto one curve index.
			s.met.tourOverflow.Inc(0)
			break
		}
		sort.SliceStable(bins, func(i, j int) bool {
			return hilbertLess(bins[i].key, bins[j].key)
		})
	}
	s.tourCache = bins
	return bins
}

// tourOverflows reports whether any bin's block coordinates exceed the
// curveBits range the space-filling curves index exactly.
func tourOverflows(bins []*bin) bool {
	for _, b := range bins {
		if !keyFits(b.key) {
			return true
		}
	}
	return false
}

// release destroys thread specifications after a non-keep run, recycling
// bins and groups through the free lists (each group to its size class's)
// and clearing the hash table.
func (s *Scheduler) release() {
	s.tourCache = nil
	for b := s.readyHead; b != nil; {
		nextBin := b.readyNext
		for g := b.groups; g != nil; {
			nextGroup := g.next
			class := s.groupClass(cap(g.recs))
			g.next = s.freeGroups[class]
			s.freeGroups[class] = g
			g = nextGroup
		}
		b.groups, b.tail = nil, nil
		b.readyNext = nil
		b.hashNext = s.freeBins
		s.freeBins = b
		b = nextBin
	}
	for i := range s.table {
		s.table[i] = nil
	}
	s.readyHead, s.readyTail = nil, nil
	s.binsUsed = 0
	s.pending = 0
}

func sortKey(k *binKey) {
	// Sorting network for three elements.
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	if k[1] > k[2] {
		k[1], k[2] = k[2], k[1]
	}
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
}
