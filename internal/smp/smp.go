// Package smp demonstrates the paper's §7 conjecture — "the idea proposed
// in this paper can be extended in a straightforward manner to improve
// performance on symmetric multiprocessors, but this remains to be
// demonstrated" — as a deterministic simulation: P processors, each with
// its own private cache hierarchy, an invalidation-based coherence model
// between the private caches, and bin-granular dispatch of the locality
// scheduler's ready list across processors.
//
// Because one bin executes entirely on one processor, the per-bin working
// set lands in a single cache (the uniprocessor benefit survives), and
// spatially adjacent bins tend to share read-mostly data, bounding
// invalidation traffic — the processor/thread affinity effect the paper's
// §5 discusses via Squillante & Lazowska. The contrast experiment
// scatters the same threads across processors (tiny scheduling blocks ⇒
// one thread per bin), which destroys both effects.
package smp

import (
	"fmt"
	"time"

	"threadsched/internal/cache"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
)

// Config parameterizes the simulated multiprocessor.
type Config struct {
	// Procs is the processor count; must be 1..64.
	Procs int
	// Machine supplies the per-processor cache geometry and timing.
	Machine machine.Machine
	// Coherence enables write-invalidation between the private caches.
	Coherence bool
}

// Proc is one simulated processor's private state.
type Proc struct {
	// Hier is the processor's private cache hierarchy.
	Hier *cache.Hierarchy
	// Instructions executed on this processor.
	Instructions uint64
	// Refs routed to this processor.
	Refs uint64
}

// Stats aggregates coherence traffic.
type Stats struct {
	// Invalidations counts lines removed from a remote cache by a write.
	Invalidations uint64
	// SharedWrites counts writes that hit lines resident elsewhere.
	SharedWrites uint64
}

// System is the simulated multiprocessor. It exposes one model CPU whose
// reference stream is routed to the currently selected processor; drive
// it with core.Scheduler.RunEach, switching processors per bin.
type System struct {
	cfg   Config
	procs []*Proc
	cpu   *sim.CPU
	cur   int
	stats Stats

	// dir maps an L2 line number to the bitmask of processors whose
	// private hierarchy may hold it.
	dir       map[uint64]uint64
	l2Line    uint64
	lastInstr uint64
}

// New builds a multiprocessor from cfg.
func New(cfg Config) (*System, error) {
	if cfg.Procs < 1 || cfg.Procs > 64 {
		return nil, fmt.Errorf("smp: procs %d out of range 1..64", cfg.Procs)
	}
	s := &System{
		cfg:    cfg,
		dir:    make(map[uint64]uint64),
		l2Line: cfg.Machine.Caches.L2.LineSize,
	}
	for p := 0; p < cfg.Procs; p++ {
		h, err := cache.NewHierarchy(cfg.Machine.Caches, nil)
		if err != nil {
			return nil, err
		}
		s.procs = append(s.procs, &Proc{Hier: h})
	}
	s.cpu = sim.NewCPU(routerRecorder{s})
	return s, nil
}

// CPU returns the model CPU traced workloads should record through.
func (s *System) CPU() *sim.CPU { return s.cpu }

// Procs returns the processor count.
func (s *System) Procs() int { return len(s.procs) }

// Proc returns processor p's state.
func (s *System) Proc(p int) *Proc { return s.procs[p] }

// Stats returns the coherence counters.
func (s *System) Stats() Stats { return s.stats }

// Switch routes subsequent references (and attributes subsequent
// instructions) to processor p. Use from a RunEach bin hook.
func (s *System) Switch(p int) {
	s.settleInstructions()
	s.cur = p
}

// settleInstructions attributes the CPU's instruction delta to the
// current processor.
func (s *System) settleInstructions() {
	delta := s.cpu.Instructions - s.lastInstr
	s.procs[s.cur].Instructions += delta
	s.lastInstr = s.cpu.Instructions
}

// routerRecorder forwards references to the current processor, applying
// the coherence protocol.
type routerRecorder struct{ s *System }

func (r routerRecorder) Record(ref trace.Ref) {
	s := r.s
	p := s.procs[s.cur]
	p.Refs++
	if s.cfg.Coherence {
		s.coherence(ref)
	}
	p.Hier.Record(ref)
}

// coherence implements a directory of sharers with write-invalidation at
// L2-line granularity: a store removes the line from every other
// processor's private caches.
func (s *System) coherence(ref trace.Ref) {
	// The reference covers [Addr, end], ending at the top of the address
	// space if it would run past it, as the hierarchy's own span does.
	end := ref.Addr
	if ref.Size > 1 {
		end += uint64(ref.Size) - 1
	}
	if end < ref.Addr {
		end = ^uint64(0)
	}
	first, last := ref.Addr/s.l2Line, end/s.l2Line
	me := uint64(1) << uint(s.cur)
	for ln := first; ; ln++ {
		holders := s.dir[ln]
		if ref.Kind == trace.Store && holders&^me != 0 {
			s.stats.SharedWrites++
			base := ln * s.l2Line
			for q, proc := range s.procs {
				if q == s.cur || holders&(1<<uint(q)) == 0 {
					continue
				}
				if s.invalidateLine(proc.Hier, base) {
					s.stats.Invalidations++
				}
			}
			holders &= me
		}
		s.dir[ln] = holders | me
		if ln == last {
			return
		}
	}
}

// invalidateLine removes one L2 line (and its covered L1D sub-lines) from
// a hierarchy, reporting whether anything was resident.
func (s *System) invalidateLine(h *cache.Hierarchy, base uint64) bool {
	present := h.L2().Invalidate(base)
	l1Line := h.L1D().Config().LineSize
	for off := uint64(0); off < s.l2Line; off += l1Line {
		if h.L1D().Invalidate(base + off) {
			present = true
		}
	}
	return present
}

// Result summarizes a finished SMP run.
type Result struct {
	// PerProc times under the machine's cost model.
	PerProc []time.Duration
	// Parallel is the slowest processor (the simulated makespan).
	Parallel time.Duration
	// Serial is the sum (the one-processor equivalent of the same work).
	Serial time.Duration
	// L2Misses sums private-L2 misses across processors.
	L2Misses uint64
	Stats    Stats
}

// Speedup is Serial/Parallel.
func (r Result) Speedup() float64 {
	if r.Parallel == 0 {
		return 0
	}
	return float64(r.Serial) / float64(r.Parallel)
}

// Finish settles instruction attribution and computes the result.
func (s *System) Finish() Result {
	s.settleInstructions()
	cm := machine.CostModel{Machine: s.cfg.Machine}
	res := Result{Stats: s.stats}
	for _, p := range s.procs {
		sum := p.Hier.Summarize()
		t := cm.Estimate(p.Instructions, sum.L1Misses, sum.L2.Misses)
		res.PerProc = append(res.PerProc, t)
		res.Serial += t
		if t > res.Parallel {
			res.Parallel = t
		}
		res.L2Misses += sum.L2.Misses
	}
	return res
}
