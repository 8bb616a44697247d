package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"threadsched/internal/obs"
)

// DepScheduler extends the thread package with dependence constraints —
// the capability §6 lists as an open problem: "it would not be convenient
// to program algorithms that have complex dependencies. Methods to
// specify dependencies and ways to implement them efficiently remain to
// be demonstrated."
//
// A thread may name previously forked threads it must run after. Run
// executes the DAG as a dataflow graph on Config.Workers workers (one,
// the calling goroutine, when Workers is below two): a thread runs as
// soon as its last predecessor finishes, on the worker that finished it
// when it is the first dependent that worker readied, and otherwise from
// a shared ready heap kept in (bin, ThreadID) order. Independent threads
// therefore run clustered by bin, in the paper's bin order, and
// dependent ones are delayed exactly as long as the DAG requires. There
// is no barrier between dependence levels. With more than one worker,
// threads with no dependence path between them may run concurrently —
// callers must ensure the dependence edges cover every conflicting
// access, which is exactly what the wavefront variants
// (sor.ThreadedExact, pde.ThreadedExact) encode. Fork is
// single-goroutine.
type DepScheduler struct {
	sched *Scheduler // reuses binning via an internal fork of metadata

	blockShift uint
	fold       bool
	workers    int

	// parks counts the times a worker found nothing runnable and parked
	// (dep.parks); nil when the Config carried no Obs.
	parks *obs.Counter

	threads []depThread
	binIdx  map[binKey]int // bin index by key, numbered in first-fork order
	pending int

	// Executor state, shared by one Run's workers. mu guards ready (the
	// heap of runnable threads no worker has claimed), idle (the parked
	// workers) and stop (the run is over); wake parks and wakes workers
	// on mu. ran sums the threads the workers executed.
	mu    sync.Mutex
	wake  sync.Cond
	ready []ThreadID
	idle  int
	stop  bool
	ran   atomic.Int64
}

// ThreadID names a forked thread within one DepScheduler run.
type ThreadID int

type depThread struct {
	fn         Func
	arg1, arg2 int
	bin        int
	// waits is the number of unfinished predecessors (-1 marks an invalid
	// dependence). The executor decrements it atomically; every plain
	// access happens outside its fanOut, so it is safe.
	waits int32
	// badDep is the offending dependence when waits is -1, surfaced by
	// Run in the UnknownDependencyError.
	badDep ThreadID
	// dependents are thread IDs to notify on completion.
	dependents []ThreadID
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

// NewDep returns a dependence-aware scheduler configured like New;
// Config.Workers is the number of workers Run executes the DAG on.
func NewDep(cfg Config) *DepScheduler {
	s := New(cfg)
	d := &DepScheduler{
		sched:      s,
		blockShift: s.blockShift,
		fold:       cfg.FoldSymmetric,
		workers:    cfg.Workers,
		binIdx:     make(map[binKey]int),
	}
	if cfg.Obs != nil {
		d.parks = cfg.Obs.Registry().Counter("dep.parks")
	}
	d.wake.L = &d.mu
	return d
}

// Workers returns the configured worker count; values below two mean Run
// executes the DAG on the calling goroutine alone.
func (d *DepScheduler) Workers() int { return d.workers }

// Close releases the worker goroutines a multi-worker Run left parked; see
// Scheduler.Close.
func (d *DepScheduler) Close() { d.sched.Close() }

// Snapshot merges the attached observability registry (worker parks plus
// the shared worker metrics); the zero Snapshot without Config.Obs. See
// Scheduler.Snapshot.
func (d *DepScheduler) Snapshot() obs.Snapshot { return d.sched.Snapshot() }

// BlockSize returns the per-dimension block size in effect.
func (d *DepScheduler) BlockSize() uint64 { return d.sched.BlockSize() }

// Pending returns the number of threads forked but not run.
func (d *DepScheduler) Pending() int { return d.pending }

// BinsUsed returns the number of bins holding threads.
func (d *DepScheduler) BinsUsed() int { return len(d.binIdx) }

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
		bi = len(d.binIdx)
		d.binIdx[key] = bi
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
		t.waits++
		d.threads[dep].dependents = append(d.threads[dep].dependents, id)
	}
	d.threads = append(d.threads, t)
	d.pending++
	return id
}

// Run executes all threads in a locality-greedy topological order,
// destroying the schedule. It fails (leaving unexecuted threads
// unexecuted) if dependencies are invalid or cyclic. With Workers > 1
// threads execute concurrently on the worker pool as their dependences
// allow.
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
// A thread panic is recovered, the run quiesces (workers stop at their
// next thread boundary; no goroutines leak), and the first panic returns
// as a *ThreadPanicError. A done ctx stops the run at the next thread
// boundary and returns ctx.Err(), even when every thread ran. A thread
// that became runnable only after the halt never runs, and no thread
// starts after RunContext returns. Invalid dependencies return an
// *UnknownDependencyError before any thread runs, and a run that stops
// making progress returns a *DependencyCycleError naming one witness
// cycle.
//
// A single fanOut starts every worker, and there is no barrier between
// dependence levels: a worker runs a thread as soon as the thread's last
// predecessor finishes. Of the dependents a finished thread readies, the
// worker keeps the first and runs it next — in the wavefront codes that
// is the same-sweep neighbour, one bin step along — and publishes the
// rest to the shared ready heap. A worker with nothing kept takes the
// heap's first thread and parks while the heap is empty. The run ends
// when the heap is empty and every other worker is parked (no running
// thread is left to ready anything: either every thread ran or the rest
// can never run), or when a thread panic or a done ctx halts it.
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
	workers := max(1, min(d.workers, d.pending))
	ctrl := newRunControl(ctx)
	for id := range d.threads {
		if d.threads[id].waits == 0 {
			d.ready = append(d.ready, ThreadID(id))
		}
	}
	slices.SortFunc(d.ready, d.readyOrder) // a sorted slice is a valid heap
	d.idle, d.stop = 0, false
	d.ran.Store(0)
	d.sched.fanOut(workers, "dataflow", func(self int) { d.work(self, workers, ctrl) })
	// fanOut's barrier ordered every record call and every thread's
	// bookkeeping before this point.
	if err := ctrl.err(); err != nil {
		return err
	}
	if int(d.ran.Load()) < d.pending {
		return d.cycleError()
	}
	return nil
}

// work is one worker's loop: take a thread from the ready heap, run it
// and the chain of dependents it keeps, repeat until the run ends.
func (d *DepScheduler) work(self, workers int, ctrl *runControl) {
	sp := d.sched.met.span(self, "dataflow")
	ran := 0
	for {
		id, ok := d.take(self, workers)
		if !ok {
			break
		}
		n, perr := d.runFrom(id, self, ctrl)
		ran += n
		if perr != nil {
			ctrl.record(perr)
		}
		if ctrl.halted() {
			d.halt()
			break
		}
	}
	d.ran.Add(int64(ran))
	sp.End()
}

// take claims the first thread of the ready heap, parking while the heap
// is empty. It reports false once the run is over: halted, or quiescent —
// the heap empty with every other worker parked.
func (d *DepScheduler) take(self, workers int) (ThreadID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.ready) == 0 && !d.stop {
		if d.idle == workers-1 {
			d.stop = true
			d.wake.Broadcast()
			break
		}
		d.idle++
		d.parks.Inc(self)
		d.wake.Wait()
		d.idle--
	}
	if d.stop {
		return 0, false
	}
	return d.pop(), true
}

// halt ends the run for every worker, waking the parked ones.
func (d *DepScheduler) halt() {
	d.mu.Lock()
	d.stop = true
	d.wake.Broadcast()
	d.mu.Unlock()
}

// runFrom runs thread id and then, for as long as the thread just run
// readied a dependent, the first dependent it readied; the others go to
// the ready heap, each waking one parked worker. The run control is
// checked before every thread, so a halt stops the chain at the next
// thread boundary. A thread panic is recovered into a *ThreadPanicError;
// the run is abandoned then, so the notifications made before it are
// never observed past reset.
func (d *DepScheduler) runFrom(id ThreadID, worker int, ctrl *runControl) (ran int, perr *ThreadPanicError) {
	defer func() {
		if r := recover(); r != nil {
			perr = &ThreadPanicError{
				Value:  r,
				Phase:  "dataflow",
				Worker: worker,
				Bin:    d.threads[id].bin,
				Thread: int(id),
				Stack:  debug.Stack(),
			}
		}
	}()
	for id >= 0 && !ctrl.halted() {
		t := &d.threads[id]
		t.fn(t.arg1, t.arg2)
		ran++
		next, locked := ThreadID(-1), false
		for _, dep := range t.dependents {
			if atomic.AddInt32(&d.threads[dep].waits, -1) != 0 {
				continue
			}
			if next < 0 {
				next = dep
				continue
			}
			if !locked {
				d.mu.Lock()
				locked = true
			}
			d.push(dep)
			d.wake.Signal()
		}
		if locked {
			d.mu.Unlock()
		}
		id = next
	}
	return ran, nil
}

// readyOrder orders the ready heap: (bin, ThreadID), the order a walk of
// every bin's forked threads would meet runnable threads in.
func (d *DepScheduler) readyOrder(a, b ThreadID) int {
	if c := cmp.Compare(d.threads[a].bin, d.threads[b].bin); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// push adds id to the ready heap, a binary min-heap under readyOrder
// kept by hand because container/heap would box every pushed ThreadID.
// The caller holds mu.
func (d *DepScheduler) push(id ThreadID) {
	h := append(d.ready, id)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if d.readyOrder(h[i], h[p]) >= 0 {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	d.ready = h
}

// pop removes and returns the ready heap's first thread. The caller holds
// mu and has checked the heap is not empty.
func (d *DepScheduler) pop() ThreadID {
	h := d.ready
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && d.readyOrder(h[c+1], h[c]) < 0 {
			c++
		}
		if d.readyOrder(h[c], h[i]) >= 0 {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	d.ready = h
	return top
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
		if t.waits > 0 {
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
// index and the ready heap keep their capacity for the next run; emptying
// the heap matters after a run halted by a panic or a cancel, whose
// unclaimed runnable threads must not leak into the next run.
func (d *DepScheduler) reset() {
	d.threads = d.threads[:0]
	clear(d.binIdx)
	d.pending = 0
	d.ready = d.ready[:0]
}
