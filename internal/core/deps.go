package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"threadsched/internal/obs"
)

// DepScheduler extends the thread package with dependence constraints —
// the capability §6 lists as an open problem: "it would not be convenient
// to program algorithms that have complex dependencies. Methods to
// specify dependencies and ways to implement them efficiently remain to
// be demonstrated."
//
// A thread may name previously forked threads it must run after. Run
// executes a locality-greedy topological order: bins are visited in the
// usual ready-list order and every runnable (dependence-satisfied) thread
// of a bin executes before the scheduler moves on; threads whose
// predecessors are still pending stay queued and their bin is revisited.
// Independent threads therefore keep the paper's bin clustering, and
// dependent ones are delayed exactly as long as the DAG requires.
//
// With Config.Workers > 1, Run instead drains the DAG in waves: each wave
// gathers every currently runnable thread, partitions them by bin into
// contiguous weighted segments (PartitionWeights, so each worker walks
// neighbouring bins just like the parallel Scheduler tour), and executes
// the wave on the persistent worker pool. Threads with no dependence path
// between them may then run concurrently — callers must ensure the
// dependence edges cover every conflicting access, which is exactly what
// the wavefront variants (sor.ThreadedExact, pde.ThreadedExact) encode.
// Fork remains single-goroutine either way.
//
// Config.CriticalPathFirst additionally orders execution by downstream
// slack: each thread's longest remaining dependence path is computed once
// per DAG, the serial executor visits bins holding the tallest chains
// first each round, and the wave executor drains each frontier
// tallest-first — so chains retire ahead of leaves and late waves are
// less likely to serialize on one straggler chain. Config.Topology
// routes the wave partition through the same hierarchical bin tree the
// parallel Scheduler uses (see tree.go).
type DepScheduler struct {
	sched *Scheduler // reuses binning via an internal fork of metadata

	blockShift uint
	fold       bool
	workers    int

	// topo and binBytes route parallel waves through the hierarchical bin
	// tree when Config.Topology is set; nil keeps the flat wave partition.
	topo     *Topology
	binBytes uint64

	// critical enables Config.CriticalPathFirst: heights[id] is the
	// longest dependence path below thread id (its downstream slack),
	// computed once per DAG, and frontiers drain tallest-first.
	critical bool
	heights  []int32

	// met records the wavefront metrics (dep.waves, dep.frontier,
	// dep.wave_ns); disabled when the Config carried no Obs.
	met depObs

	threads []depThread
	bins    []*depBin
	binIdx  map[binKey]int
	pending int

	// Wavefront scratch, reused across waves (and runs) so building a
	// frontier allocates nothing in steady state: frontier is the flat
	// runnable-thread buffer each wave's spans slice into, and readied[w]
	// collects the dependents worker w's threads made runnable during the
	// current wave. Each worker appends only to its own slice; merged after
	// the wave barrier they are the next frontier.
	frontier []ThreadID
	readied  [][]ThreadID
}

// waveSpan is one bin's slice of a wave frontier: frontier[start:end]
// holds the bin's runnable threads, bin names the depBin for post-wave
// accounting.
type waveSpan struct {
	start, end, bin int
}

// ThreadID names a forked thread within one DepScheduler run.
type ThreadID int

type depThread struct {
	fn         Func
	arg1, arg2 int
	bin        int
	// waits is the number of unfinished predecessors (-1 marks an invalid
	// dependence). Parallel waves decrement it atomically; every read
	// happens after the wave barrier, so plain loads elsewhere are safe.
	waits int32
	// badDep is the offending dependence when waits is -1, surfaced by
	// Run in the UnknownDependencyError.
	badDep ThreadID
	// dependents are thread IDs to notify on completion.
	dependents []ThreadID
	done       bool
}

type depBin struct {
	key   binKey
	queue []ThreadID // forked order
	next  int        // first unexecuted index (serial executor)
}

// ErrDependencyCycle reports that Run found threads that can never become
// runnable. Run returns it wrapped in a *DependencyCycleError naming the
// stuck threads; match with errors.Is.
var ErrDependencyCycle = errors.New("core: dependency cycle among threads")

// ErrUnknownDependency reports a Fork whose deps named a thread ID that
// was never forked (forward references and IDs from a previous Run are
// invalid). Run returns it wrapped in an *UnknownDependencyError naming
// the offending thread and dependence; match with errors.Is.
var ErrUnknownDependency = errors.New("core: thread depends on an unknown thread ID")

// DependencyCycleError is the diagnosable form of ErrDependencyCycle:
// when Run stops making progress, the threads left over — the residue of
// the implicit Kahn topological sort Run performs — must contain a cycle,
// and one is extracted by walking waits-on edges through the residue
// until a thread repeats.
type DependencyCycleError struct {
	// Cycle is one dependency cycle among the stuck threads: Cycle[i]
	// waits on Cycle[i+1], and the last element waits on the first.
	Cycle []ThreadID
	// Stuck is the total number of threads left unexecutable — the whole
	// Kahn residue, of which Cycle is one witness loop.
	Stuck int
}

// Error names the cycle's thread IDs.
func (e *DependencyCycleError) Error() string {
	if len(e.Cycle) == 0 {
		return fmt.Sprintf("%v (%d threads stuck)", ErrDependencyCycle, e.Stuck)
	}
	ids := make([]byte, 0, 8*len(e.Cycle))
	for _, id := range e.Cycle {
		if len(ids) > 0 {
			ids = append(ids, " -> "...)
		}
		ids = fmt.Appendf(ids, "%d", id)
	}
	return fmt.Sprintf("%v: %s -> %d (%d threads stuck)",
		ErrDependencyCycle, ids, e.Cycle[0], e.Stuck)
}

// Unwrap matches errors.Is(err, ErrDependencyCycle).
func (e *DependencyCycleError) Unwrap() error { return ErrDependencyCycle }

// UnknownDependencyError is the diagnosable form of ErrUnknownDependency,
// naming the first thread forked with an invalid dependence.
type UnknownDependencyError struct {
	// Thread is the thread that was forked with the bad dependence.
	Thread ThreadID
	// Dep is the dependence that named no forked thread.
	Dep ThreadID
}

// Error names the offending thread and dependence.
func (e *UnknownDependencyError) Error() string {
	return fmt.Sprintf("%v: thread %d depends on %d, which was not forked before it "+
		"(IDs are valid only for threads already forked in this Run cycle)",
		ErrUnknownDependency, e.Thread, e.Dep)
}

// Unwrap matches errors.Is(err, ErrUnknownDependency).
func (e *UnknownDependencyError) Unwrap() error { return ErrUnknownDependency }

// NewDep returns a dependence-aware scheduler configured like New.
// Config.Workers > 1 selects the parallel wavefront executor.
func NewDep(cfg Config) *DepScheduler {
	s := New(cfg)
	return &DepScheduler{
		sched:      s,
		blockShift: s.blockShift,
		fold:       cfg.FoldSymmetric,
		workers:    cfg.Workers,
		topo:       s.cfg.Topology,
		binBytes:   s.binFootprint(),
		critical:   cfg.CriticalPathFirst,
		met:        newDepObs(cfg.Obs),
		binIdx:     make(map[binKey]int),
	}
}

// Workers returns the configured wave-executor worker count; values below
// two mean Run drains bins serially.
func (d *DepScheduler) Workers() int { return d.workers }

// Close releases the worker goroutines a parallel Run left parked; see
// Scheduler.Close.
func (d *DepScheduler) Close() { d.sched.Close() }

// Snapshot merges the attached observability registry (wave counts,
// frontier sizes, wave times plus the shared worker metrics); the zero
// Snapshot without Config.Obs. See Scheduler.Snapshot.
func (d *DepScheduler) Snapshot() obs.Snapshot { return d.sched.Snapshot() }

// BlockSize returns the per-dimension block size in effect.
func (d *DepScheduler) BlockSize() uint64 { return d.sched.BlockSize() }

// Pending returns the number of threads forked but not run.
func (d *DepScheduler) Pending() int { return d.pending }

// BinsUsed returns the number of bins holding threads.
func (d *DepScheduler) BinsUsed() int { return len(d.bins) }

// Fork schedules f(arg1, arg2) with the usual address hints, to run only
// after every thread in deps has completed. It returns the new thread's
// ID. Unknown (future) IDs in deps are an error at Run time; IDs from a
// previous Run are invalid. deps is not retained, so callers may reuse
// one buffer across Forks.
//
// Like Scheduler.Fork, it must never overlap a Run in progress — Fork is
// single-goroutine and the fork phase must complete before Run starts —
// and panics if it detects that misuse.
func (d *DepScheduler) Fork(f Func, arg1, arg2 int, h1, h2, h3 uint64, deps ...ThreadID) ThreadID {
	if d.sched.running.Load() {
		panic("core: Fork called during Run; fork and run phases must not overlap " +
			"(DepScheduler.Fork is single-goroutine and must complete before Run starts)")
	}
	key := binKey{h1 >> d.blockShift, h2 >> d.blockShift, h3 >> d.blockShift}
	if d.fold {
		sortKey(&key)
	}
	bi, ok := d.binIdx[key]
	if !ok {
		bi = len(d.bins)
		d.binIdx[key] = bi
		d.bins = append(d.bins, &depBin{key: key})
	}
	id := ThreadID(len(d.threads))
	t := depThread{fn: f, arg1: arg1, arg2: arg2, bin: bi}
	for _, dep := range deps {
		if dep < 0 || int(dep) >= len(d.threads) {
			// Defer the error to Run by marking an impossible wait; a
			// panic here would be hostile in library code.
			t.waits = -1
			t.badDep = dep
			break
		}
		if !d.threads[dep].done {
			t.waits++
			d.threads[dep].dependents = append(d.threads[dep].dependents, id)
		}
	}
	d.threads = append(d.threads, t)
	d.bins[bi].queue = append(d.bins[bi].queue, id)
	d.pending++
	return id
}

// Run executes all threads in a locality-greedy topological order,
// destroying the schedule. It fails (leaving unexecuted threads
// unexecuted) if dependencies are invalid or cyclic. With Workers > 1
// each wave of runnable threads executes concurrently on the worker pool.
//
// Run is RunContext without cancellation; a thread panic propagates as a
// panic (with a *ThreadPanicError value) exactly as it did before
// containment existed.
func (d *DepScheduler) Run() error {
	err := d.RunContext(context.Background())
	if p, ok := err.(*ThreadPanicError); ok {
		panic(p)
	}
	return err
}

// RunContext is Run with cooperative cancellation and fault containment.
// A thread panic is recovered, the run quiesces (parallel workers stop at
// their next bin boundary; no goroutines leak), and the first panic
// returns as a *ThreadPanicError. A done ctx stops the run at the next
// bin (serial) or wave (parallel) boundary and returns ctx.Err(). Invalid
// dependencies return an *UnknownDependencyError before any thread runs,
// and a run that stops making progress returns a *DependencyCycleError
// naming one witness cycle.
//
// On any outcome the schedule is destroyed: forked threads are discarded
// (executed or not) and the scheduler is immediately reusable for a fresh
// Fork/Run cycle.
func (d *DepScheduler) RunContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	defer d.reset()
	for id, t := range d.threads {
		if t.waits < 0 {
			return &UnknownDependencyError{Thread: ThreadID(id), Dep: t.badDep}
		}
	}
	d.sched.running.Store(true)
	defer d.sched.running.Store(false)
	if d.critical {
		d.computeHeights()
	}
	if d.workers > 1 {
		return d.runWaves(ctx)
	}
	binOrder := d.serialBinOrder()
	remaining := d.pending
	for remaining > 0 {
		ranThisRound := 0
		for i := range d.bins {
			bi := i
			if binOrder != nil {
				bi = binOrder[i]
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			ran, perr := d.drainBin(d.bins[bi], bi)
			ranThisRound += ran
			if perr != nil {
				return perr
			}
		}
		if ranThisRound == 0 {
			return d.cycleError()
		}
		remaining -= ranThisRound
	}
	// Cancellation wins even when it lands during the final drain, for
	// consistency with the wavefront path's post-wave control check.
	return ctx.Err()
}

// runWaves is the parallel executor: each wave takes the runnable
// frontier in (bin index, ThreadID) order, cuts it into contiguous
// weighted bin segments, and executes one segment per worker. The barrier
// between waves is what lets dependents observe completed predecessors
// without per-thread synchronization; within a wave only threads with no
// dependence path between them run, and they are at least two bins apart
// in the wavefront codes, so per-worker bin runs keep the paper's
// clustering.
//
// Each wave costs time proportional to its frontier, not to the threads
// still pending: the first frontier is one pass over the threads with no
// unfinished predecessor, and every later one is exactly the threads
// whose last predecessor finished in the previous wave — which the
// workers collected in their readied slices as they ran — merged and
// sorted. Waves are therefore the Kahn levels of the DAG.
func (d *DepScheduler) runWaves(ctx context.Context) error {
	ctrl := newRunControl(ctx)
	if len(d.readied) < d.workers {
		d.readied = make([][]ThreadID, d.workers)
	}
	d.frontier = d.frontier[:0]
	for id := range d.threads {
		if d.threads[id].waits == 0 {
			d.frontier = append(d.frontier, ThreadID(id))
		}
	}
	var (
		spans   []waveSpan
		weights []int
	)
	for d.pending > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		total := len(d.frontier)
		if total == 0 {
			return d.cycleError()
		}
		spans, weights = d.frontierSpans(spans[:0], weights[:0])
		d.met.waves.Inc(0)
		d.met.frontier.Observe(0, uint64(total))
		var start time.Time
		if d.met.o != nil {
			start = time.Now()
		}
		d.executeWave(spans, weights, ctrl)
		if d.met.o != nil {
			d.met.waveNS.Observe(0, uint64(time.Since(start)))
		}
		// The fanOut barrier inside executeWave ordered every record call
		// before this check, so a panic anywhere in the wave is visible.
		if err := ctrl.err(); err != nil {
			return err
		}
		// The wave completed: the threads it made runnable are the next
		// frontier.
		d.pending -= total
		d.frontier = d.frontier[:0]
		for w, ids := range d.readied {
			d.frontier = append(d.frontier, ids...)
			d.readied[w] = ids[:0]
		}
	}
	return ctx.Err() // cancellation wins even on a completed drain
}

// frontierSpans sorts the frontier by (bin index, ThreadID) — the order a
// walk of every bin's queue would find its runnable threads in — and
// appends one span and weight per bin run. Under CriticalPathFirst each
// span is then ordered tallest chain first, and the spans tallest span
// first.
func (d *DepScheduler) frontierSpans(spans []waveSpan, weights []int) ([]waveSpan, []int) {
	slices.SortFunc(d.frontier, func(a, b ThreadID) int {
		if c := cmp.Compare(d.threads[a].bin, d.threads[b].bin); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for start := 0; start < len(d.frontier); {
		bi := d.threads[d.frontier[start]].bin
		end := start + 1
		for end < len(d.frontier) && d.threads[d.frontier[end]].bin == bi {
			end++
		}
		if d.critical && end-start > 1 {
			// Tallest chains first within the bin; stable so ties keep
			// forked order.
			slot := d.frontier[start:end]
			sort.SliceStable(slot, func(a, b int) bool {
				return d.heights[slot[a]] > d.heights[slot[b]]
			})
		}
		spans = append(spans, waveSpan{start: start, end: end, bin: bi})
		weights = append(weights, end-start)
		start = end
	}
	if d.critical && len(spans) > 1 {
		// Bins carrying the tallest remaining chains drain first. This
		// trades some tour adjacency for chain progress, which is the
		// point of CriticalPathFirst; stable keeps tour order on ties.
		sort.Stable(&spanHeightSort{spans: spans, weights: weights, d: d})
	}
	return spans, weights
}

// executeWave runs the collected frontier on the worker pool, one
// contiguous run of bins per worker. With a Topology the cut follows the
// hierarchical bin tree over the wave's spans (topoAssign), so worker
// clusters sharing a cache take adjacent runs of frontier bins, exactly
// as the parallel Scheduler tour does; otherwise it is the flat weighted
// partition. Workers slice the shared frontier buffer read-only through
// their spans, append the dependents they make runnable to their own
// readied slice, and check the shared runControl between bins, so a panic
// on one worker (recovered into the control) or an expired ctx halts the
// wave at bin granularity; fanOut's barrier then guarantees quiescence
// before runWaves inspects the control and the readied slices.
func (d *DepScheduler) executeWave(spans []waveSpan, weights []int, ctrl *runControl) {
	var asn []segRange
	if d.topo != nil {
		asn = topoAssign(weights, d.workers, buildBinTree(len(spans), d.binBytes, d.topo))
	} else {
		asn = startsToRanges(PartitionWeights(weights, d.workers), len(spans))
	}
	d.sched.fanOut(len(asn), "wave", func(self int) {
		sp := d.sched.met.span(self, "wave")
		defer sp.End()
		ready := d.readied[self]
		defer func() { d.readied[self] = ready }()
		for si := asn[self].lo; si < asn[self].hi; si++ {
			if ctrl.halted() {
				return
			}
			ws := spans[si]
			var perr *ThreadPanicError
			if ready, perr = d.runWaveBin(d.frontier[ws.start:ws.end], ws.bin, self, ready); perr != nil {
				ctrl.record(perr)
				return
			}
		}
	})
}

// spanHeightSort co-sorts a wave's spans and weights by each span's
// tallest thread height, descending. The spans' frontier slices were
// already sorted tallest-first, so frontier[start] carries the maximum.
type spanHeightSort struct {
	spans   []waveSpan
	weights []int
	d       *DepScheduler
}

func (s *spanHeightSort) Len() int { return len(s.spans) }

func (s *spanHeightSort) Less(i, j int) bool {
	return s.d.heights[s.d.frontier[s.spans[i].start]] > s.d.heights[s.d.frontier[s.spans[j].start]]
}

func (s *spanHeightSort) Swap(i, j int) {
	s.spans[i], s.spans[j] = s.spans[j], s.spans[i]
	s.weights[i], s.weights[j] = s.weights[j], s.weights[i]
}

// computeHeights fills heights[id] with the longest dependence path from
// thread id down through its dependents — the amount of serial work its
// completion unblocks. Dependence edges only point from lower to higher
// IDs (a dependence must name an already-forked thread), so one
// descending-ID pass settles every height.
func (d *DepScheduler) computeHeights() {
	n := len(d.threads)
	if cap(d.heights) < n {
		d.heights = make([]int32, n)
	} else {
		d.heights = d.heights[:n]
		for i := range d.heights {
			d.heights[i] = 0
		}
	}
	for id := n - 1; id >= 0; id-- {
		h := int32(0)
		for _, dep := range d.threads[id].dependents {
			if hh := d.heights[dep] + 1; hh > h {
				h = hh
			}
		}
		d.heights[id] = h
	}
}

// serialBinOrder is the bin visit order for the serial executor: nil (the
// identity, allocation order) normally; under CriticalPathFirst, bins
// sorted by their tallest thread's height descending, so every round of
// the scan reaches the bins holding the longest remaining chains first.
func (d *DepScheduler) serialBinOrder() []int {
	if !d.critical {
		return nil
	}
	maxH := make([]int32, len(d.bins))
	for bi, b := range d.bins {
		for _, id := range b.queue {
			if h := d.heights[id]; h > maxH[bi] {
				maxH[bi] = h
			}
		}
	}
	order := make([]int, len(d.bins))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return maxH[order[a]] > maxH[order[b]] })
	return order
}

// runWaveBin executes one wave bin's threads, appending to ready every
// dependent whose last unfinished predecessor was among them, and
// recovers a thread panic into a *ThreadPanicError. Threads that completed
// before the panic have notified their dependents; the run is abandoned
// anyway, so the partial notifications are never observed past reset.
func (d *DepScheduler) runWaveBin(ids []ThreadID, binIdx, worker int, in []ThreadID) (ready []ThreadID, perr *ThreadPanicError) {
	ready = in
	cur := ThreadID(-1)
	defer func() {
		if r := recover(); r != nil {
			perr = &ThreadPanicError{
				Value:  r,
				Phase:  "wave",
				Worker: worker,
				Bin:    binIdx,
				Thread: int(cur),
				Stack:  debug.Stack(),
			}
		}
	}()
	for _, id := range ids {
		cur = id
		t := &d.threads[id]
		t.fn(t.arg1, t.arg2)
		t.done = true
		for _, dep := range t.dependents {
			if atomic.AddInt32(&d.threads[dep].waits, -1) == 0 {
				ready = append(ready, dep)
			}
		}
	}
	return ready, nil
}

// drainBin runs every currently runnable thread of the bin, in forked
// order, including threads unblocked by work done within this drain. A
// thread panic is recovered into a *ThreadPanicError identifying the
// thread; ran still counts the threads that completed before it.
func (d *DepScheduler) drainBin(b *depBin, binIdx int) (ran int, perr *ThreadPanicError) {
	cur := ThreadID(-1)
	defer func() {
		if r := recover(); r != nil {
			perr = &ThreadPanicError{
				Value:  r,
				Phase:  "dep-run",
				Worker: 0,
				Bin:    binIdx,
				Thread: int(cur),
				Stack:  debug.Stack(),
			}
		}
	}()
	for {
		progressed := false
		// Advance the frontier past executed threads and run runnable
		// ones at the frontier; scan the tail for runnable stragglers.
		for i := b.next; i < len(b.queue); i++ {
			id := b.queue[i]
			t := &d.threads[id]
			if t.done {
				if i == b.next {
					b.next++
				}
				continue
			}
			if t.waits > 0 {
				continue
			}
			cur = id
			d.execute(id)
			ran++
			progressed = true
			if i == b.next {
				b.next++
			}
		}
		if !progressed {
			return ran, nil
		}
	}
}

// execute runs one thread and notifies dependents.
func (d *DepScheduler) execute(id ThreadID) {
	t := &d.threads[id]
	t.fn(t.arg1, t.arg2)
	t.done = true
	d.pending--
	for _, dep := range t.dependents {
		d.threads[dep].waits--
	}
}

// cycleError builds the diagnosable cycle report once a run stops making
// progress. At that point no thread is runnable, so every unfinished
// thread has waits > 0 — the residue of the implicit Kahn sort — and each
// waits on at least one other residue member. Following those waits-on
// edges (recovered by inverting the dependents lists within the residue)
// must therefore revisit a thread, and the walked loop is the witness
// cycle.
func (d *DepScheduler) cycleError() *DependencyCycleError {
	var residue []ThreadID
	inResidue := make(map[ThreadID]bool)
	for id := range d.threads {
		t := &d.threads[id]
		if !t.done && t.waits > 0 {
			residue = append(residue, ThreadID(id))
			inResidue[ThreadID(id)] = true
		}
	}
	if len(residue) == 0 {
		return &DependencyCycleError{}
	}
	// pred[x] = one unfinished predecessor x waits on, from the inverted
	// dependents edges. Deterministic: threads are scanned in ID order.
	pred := make(map[ThreadID]ThreadID, len(residue))
	for _, id := range residue {
		for _, dep := range d.threads[id].dependents {
			if inResidue[dep] {
				pred[dep] = id
			}
		}
	}
	seen := make(map[ThreadID]int, len(residue))
	var path []ThreadID
	cur := residue[0]
	for {
		if i, ok := seen[cur]; ok {
			return &DependencyCycleError{
				Cycle: append([]ThreadID(nil), path[i:]...),
				Stuck: len(residue),
			}
		}
		seen[cur] = len(path)
		path = append(path, cur)
		next, ok := pred[cur]
		if !ok {
			// Unreachable when the residue invariant holds (every stuck
			// thread has a stuck predecessor); report the count alone
			// rather than panic inside error construction.
			return &DependencyCycleError{Stuck: len(residue)}
		}
		cur = next
	}
}

// reset discards all thread state; IDs from before are invalid. The bin
// index and the wavefront scratch buffers keep their capacity for the
// next run; emptying the readied slices matters after a wave halted by a
// panic or a cancel, whose readied dependents must not leak into the
// next run's frontiers.
func (d *DepScheduler) reset() {
	d.threads = d.threads[:0]
	d.bins = d.bins[:0]
	clear(d.binIdx)
	d.pending = 0
	d.frontier = d.frontier[:0]
	for w := range d.readied {
		d.readied[w] = d.readied[w][:0]
	}
}
