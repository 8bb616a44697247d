package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// Parallel Run dispatch. The tour orders (allocation, Morton, Hilbert)
// place spatially adjacent bins next to each other; handing workers bins
// one at a time from a shared counter — the obvious dispatch — therefore
// deals neighbouring bins to *different* workers, destroying exactly the
// cross-bin adjacency the tour was built to exploit and maximizing the
// read-mostly data shared between caches. Instead the tour is cut into
// contiguous segments, one per worker, weighted by thread count; a worker
// that drains its segment steals the upper half of the largest remaining
// segment, so even rebalanced work is a contiguous tour run. This is the
// hierarchy-aware distribution BubbleSched-style schedulers apply to task
// trees, specialized to the paper's 1-D bin tour.

// PartitionWeights cuts n weighted items into at most parts contiguous
// segments of near-equal total weight, returning each segment's start
// index (segment i spans starts[i] up to starts[i+1], the last one up to
// n). It never returns an empty segment: len(result) = min(parts, n), or
// nil for an empty input.
func PartitionWeights(weights []int, parts int) []int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	remaining := 0
	for _, w := range weights {
		remaining += w
	}
	starts := make([]int, parts)
	i := 0
	for p := 0; p < parts; p++ {
		starts[p] = i
		if p == parts-1 {
			break
		}
		target := remaining / (parts - p)
		acc := 0
		// Take at least one item; stop at the cut closest to the target
		// weight, but never starve the remaining segments of items.
		for i < n-(parts-1-p) {
			w := weights[i]
			if acc > 0 && acc+w-target > target-acc {
				break
			}
			acc += w
			i++
			if acc >= target {
				break
			}
		}
		remaining -= acc
	}
	return starts
}

// binSegment is one worker's claimable range [lo, hi) of tour indexes,
// packed into a single atomic word so both the owner's take-from-front
// and a thief's take-from-back are lock-free CAS updates on one cell.
// Padding keeps neighbouring segments off one cache line.
type binSegment struct {
	bounds atomic.Uint64
	_      [56]byte
}

func packRange(lo, hi int) uint64 { return uint64(uint32(lo))<<32 | uint64(uint32(hi)) }

func unpackRange(v uint64) (lo, hi int) { return int(int32(v >> 32)), int(int32(v)) }

// take claims a contiguous run of the segment's lowest unclaimed indexes:
// an eighth of the remainder, at least one, at most chunk
// (DefaultStealChunk in production). Batching the claim cuts dispatch to
// one atomic per chunk of bins while leaving the bulk of the segment in
// the shared word where stealHalf can still get at it — claimed bins are
// the owner's, exactly as if they had been claimed one by one. A small
// chunk keeps the work exposed to thieves shrinking in fine steps near
// the end of a run; a large one amortizes the CAS over longer runs.
func (g *binSegment) take(chunk int) (lo, hi int, ok bool) {
	for {
		v := g.bounds.Load()
		l, h := unpackRange(v)
		if l >= h {
			return 0, 0, false
		}
		n := (h - l + 7) / 8
		if n > chunk {
			n = chunk
		}
		if g.bounds.CompareAndSwap(v, packRange(l+n, h)) {
			return l, l + n, true
		}
	}
}

// remaining is the number of unclaimed indexes left in the segment.
func (g *binSegment) remaining() int {
	lo, hi := unpackRange(g.bounds.Load())
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// stealHalf detaches the upper half of the segment's remaining range,
// leaving the lower half (at least one index) to the owner so the owner
// keeps advancing through adjacent bins. A segment with one index left is
// never stolen.
func (g *binSegment) stealHalf() (lo, hi int, ok bool) {
	for {
		v := g.bounds.Load()
		l, h := unpackRange(v)
		if h-l <= 1 {
			return 0, 0, false
		}
		cut := l + (h-l+1)/2
		if g.bounds.CompareAndSwap(v, packRange(l, cut)) {
			return cut, h, true
		}
	}
}

// runSegmented executes bins across Workers goroutines; each bin runs
// entirely on one worker so the per-bin working set still fits one cache.
// Containment and cancellation are cooperative: every worker checks the
// shared runControl once per bin, so a panic on one worker (recovered
// into the control) or an expired ctx stops the whole pool at bin
// granularity, after which fanOut's barrier guarantees quiescence. With
// observability attached, each contiguous drain (the initial segment and
// every stolen refill) is timed into sched.segment_drain_ns and spanned
// on the worker's timeline track, and sched.steals counts successful
// refills per thief.
func (s *Scheduler) runSegmented(ctx context.Context, order []*bin) error {
	ctrl := newRunControl(ctx)
	weights := make([]int, len(order))
	for i, b := range order {
		weights[i] = b.threads
	}
	starts := PartitionWeights(weights, s.cfg.Workers)
	segs := make([]binSegment, len(starts))
	for i := range segs {
		hi := len(order)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		segs[i].bounds.Store(packRange(starts[i], hi))
	}
	s.fanOut(len(segs), "run", func(self int) {
		for {
			start := s.met.now()
			sp := s.met.span(self, "drain")
			bins, threads := 0, 0
			for !ctrl.halted() {
				lo, hi, ok := segs[self].take(DefaultStealChunk)
				if !ok {
					break
				}
				for i := lo; i < hi && !ctrl.halted(); i++ {
					n, perr := s.runBinContained(order[i], i, self, "run")
					threads += n
					bins++
					if perr != nil {
						ctrl.record(perr)
						break
					}
				}
			}
			s.met.threadsRun.Add(self, uint64(threads))
			s.met.drainDone(self, start, bins, sp)
			if ctrl.halted() {
				return
			}
			if !stealInto(segs, self, ctrl) {
				return
			}
			s.met.steals.Inc(self)
		}
	})
	return ctrl.err()
}

// stealInto moves half of the largest remaining segment into segs[self]
// (which the caller has drained). Only the slot's owner refills it, so a
// worker that returns false and exits leaves its slot empty forever and
// every non-empty slot still has an active owner — that is what makes
// "no victim with more than one bin left" a safe exit condition. The
// rescan loop re-checks the run control so a cancelled or panicked run
// cannot keep a thief spinning against racing victims past the halt.
func stealInto(segs []binSegment, self int, ctrl *runControl) bool {
	for !ctrl.halted() {
		victim, best := -1, 1
		for i := range segs {
			if i == self {
				continue
			}
			if r := segs[i].remaining(); r > best {
				victim, best = i, r
			}
		}
		if victim < 0 {
			return false
		}
		if lo, hi, ok := segs[victim].stealHalf(); ok {
			segs[self].bounds.Store(packRange(lo, hi))
			return true
		}
		// Lost the race to the victim's own progress; rescan.
	}
	return false
}

// fanOut runs fn(0..n-1) concurrently: fn(0) on the calling goroutine and
// the rest on pooled workers, so a keep=true re-run spawns no goroutines
// after the first Run. With observability attached, every worker runs
// under pprof labels naming its track and phase, so profiles of a
// parallel run split per worker.
func (s *Scheduler) fanOut(n int, phase string, fn func(worker int)) {
	if o := s.cfg.Obs; o != nil {
		inner := fn
		fn = func(w int) { o.Labeled(w, phase, func() { inner(w) }) }
	}
	if n <= 1 {
		fn(0)
		return
	}
	if s.pool == nil {
		s.pool = &workerPool{jobs: make(chan poolJob)}
	}
	s.pool.ensure(n - 1)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		s.pool.jobs <- poolJob{worker: w, fn: fn, wg: &wg}
	}
	fn(0)
	wg.Wait()
}

// workerPool parks Run's worker goroutines between calls.
type workerPool struct {
	jobs    chan poolJob
	spawned int
}

type poolJob struct {
	worker int
	fn     func(int)
	wg     *sync.WaitGroup
}

// ensure grows the pool to at least n parked workers. Only the goroutine
// calling Run touches spawned, per the scheduler's contract.
func (p *workerPool) ensure(n int) {
	for ; p.spawned < n; p.spawned++ {
		go func() {
			for j := range p.jobs {
				j.fn(j.worker)
				j.wg.Done()
			}
		}()
	}
}

// Close releases the persistent worker goroutines a parallel Run left
// parked. It is optional — an unclosed pool simply keeps its goroutines
// for the life of the process — and safe to call repeatedly; a later Run
// recreates the pool on demand. Close must not overlap a Run in progress.
func (s *Scheduler) Close() {
	if s.pool != nil {
		close(s.pool.jobs)
		s.pool = nil
	}
}
