package nbody

import (
	"threadsched/internal/core"
	"threadsched/internal/sim"
)

// applyBody computes body i's acceleration from the tree snapshot and
// integrates its state (symplectic Euler). Independent across bodies.
func applyBody(s *System, t *Tree, i int, tr *Tracer) {
	tr.loadBodyPos(i)
	acc := t.Accel(s, s.Bodies[i].Pos, tr)
	b := &s.Bodies[i]
	for d := 0; d < 3; d++ {
		b.Vel[d] += acc[d] * s.DT
		b.Pos[d] += b.Vel[d] * s.DT
	}
	tr.update(i)
}

// StepUnthreaded advances the system one time step, processing bodies in
// array order. tr may be nil. It returns the tree (for inspection).
func StepUnthreaded(s *System, tr *Tracer) *Tree {
	t := &Tree{}
	StepUnthreadedReuse(s, t, tr)
	return t
}

// StepUnthreadedReuse is StepUnthreaded rebuilding into t's node pool, so
// stepping in a loop allocates nothing once the pool is warm.
func StepUnthreadedReuse(s *System, t *Tree, tr *Tracer) {
	t.Rebuild(s, tr)
	for i := range s.Bodies {
		applyBody(s, t, i, tr)
	}
}

// HintSpanFactor scales the unit cube to the dimensions of the scheduling
// plane (§4.4: "normalized the positions to the unit cube and then scaled
// them to the dimensions of the scheduling plane"): each axis spans
// HintSpanFactor × the cache size (one cache size per axis, ~3-4 default blocks), a fixed plane so that sweeping the
// scheduler's block size (Figure 4) genuinely changes the binning.
const HintSpanFactor = 1

// Hints converts a position to the three address hints, normalizing by
// the tree bounds and scaling across the plane for a cache of cacheSize.
func Hints(t *Tree, cacheSize uint64, pos [3]float64) (h1, h2, h3 uint64) {
	span := float64(HintSpanFactor) * float64(cacheSize)
	h := func(d int) uint64 {
		norm := (pos[d] - t.Min[d]) / t.Edge
		if norm < 0 {
			norm = 0
		}
		if norm > 1 {
			norm = 1
		}
		return uint64(norm * span)
	}
	return h(0), h(1), h(2)
}

// Forker abstracts the fork/run surface (core.Scheduler, sim.Threads, or
// a custom dispatcher such as the SMP simulator's) so all threaded steps
// share one implementation.
type Forker interface {
	Fork(f core.Func, arg1, arg2 int, h1, h2, h3 uint64)
	Run(keep bool)
}

type forker = Forker

// schedForker adapts *core.Scheduler to forker.
type schedForker struct{ s *core.Scheduler }

func (f schedForker) Fork(fn core.Func, a1, a2 int, h1, h2, h3 uint64) {
	f.s.Fork(fn, a1, a2, h1, h2, h3)
}
func (f schedForker) Run(keep bool) { f.s.Run(keep) }

// StepThreaded advances the system one time step, forking one thread per
// body with its spatial coordinates as hints. Results are bit-for-bit
// identical to StepUnthreaded: forces come from the tree snapshot, so
// execution order cannot change them.
//
// With a ParallelScheduler, Run drains bins on the worker pool while the
// fork loop stays on the calling goroutine (Fork is single-producer); body
// threads write disjoint bodies off an immutable tree snapshot, so the
// parallel run is race-free, bit-identical, and — bins being a pure
// function of the hints — reports identical RunStats.
func StepThreaded(s *System, sched *core.Scheduler, tr *Tracer) *Tree {
	t := &Tree{}
	StepThreadedReuse(s, t, sched, tr)
	return t
}

// StepThreadedReuse is StepThreaded rebuilding into t's node pool.
func StepThreadedReuse(s *System, t *Tree, sched *core.Scheduler, tr *Tracer) {
	stepThreadedInto(t, s, schedForker{sched}, sched.CacheSize(), tr)
}

func stepThreaded(s *System, f forker, cacheSize uint64, tr *Tracer) *Tree {
	t := &Tree{}
	stepThreadedInto(t, s, f, cacheSize, tr)
	return t
}

func stepThreadedInto(t *Tree, s *System, f forker, cacheSize uint64, tr *Tracer) {
	t.Rebuild(s, tr)
	// One closure for every thread: forking must stay allocation-free.
	body := func(i, _ int) { applyBody(s, t, i, tr) }
	for i := range s.Bodies {
		h1, h2, h3 := Hints(t, cacheSize, s.Bodies[i].Pos)
		f.Fork(body, i, 0, h1, h2, h3)
	}
	f.Run(false)
}

// StepThreadedTraced is StepThreadedReuse through the traced scheduler
// wrapper, so fork/run overhead is charged to the simulation as well. It
// rebuilds into t's node pool, so a multi-step run keeps one tree.
func StepThreadedTraced(s *System, t *Tree, th *sim.Threads, tr *Tracer) {
	stepThreadedInto(t, s, th, th.Sched.CacheSize(), tr)
}

// StepThreadedWith runs a threaded step through an arbitrary Forker
// (e.g. an SMP bin dispatcher); cacheSize scales the position hints.
func StepThreadedWith(s *System, f Forker, cacheSize uint64, tr *Tracer) *Tree {
	return stepThreaded(s, f, cacheSize, tr)
}

// ThreadedScheduler builds the scheduler configuration for the N-body
// workload: three-dimensional hints, default block size (cache/3).
func ThreadedScheduler(l2Size uint64) *core.Scheduler {
	return core.New(core.Config{CacheSize: l2Size})
}

// ParallelScheduler is ThreadedScheduler's multicore counterpart: the
// same binning plus the segmented parallel run across workers. Close it
// to release the worker pool.
func ParallelScheduler(l2Size uint64, workers int) *core.Scheduler {
	return core.New(core.Config{
		CacheSize: l2Size,
		Workers:   workers,
	})
}
