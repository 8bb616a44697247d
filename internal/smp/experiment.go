package smp

import (
	"threadsched/internal/apps/nbody"
	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/vm"
)

// Policy selects how threads map to processors in the experiment.
type Policy int

const (
	// LocalityBins schedules with the paper's cache-sized blocks and
	// assigns each bin to the least-loaded processor: bins stay intact
	// but their tour adjacency is ignored.
	LocalityBins Policy = iota
	// Scatter shrinks blocks to one byte — effectively one thread per
	// bin in fork order — so spatially adjacent threads land on
	// different processors; the no-locality baseline.
	Scatter
	// SegmentTour partitions the bin tour into contiguous segments
	// weighted by thread count, one per processor — the assignment the
	// core scheduler's parallel Run starts from before any stealing.
	// Spatially adjacent bins share a processor, so the read-mostly data
	// they share stays in one private cache instead of ping-ponging.
	SegmentTour
	// InterleaveBins assigns whole bins round-robin across processors —
	// the assignment a dispatcher that deals bins one at a time from a
	// shared counter converges to: bins stay intact, but tour neighbours
	// always land on different processors.
	InterleaveBins
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Scatter:
		return "scatter"
	case SegmentTour:
		return "segment-tour"
	case InterleaveBins:
		return "interleave-bins"
	default:
		return "locality-bins"
	}
}

// NBodyExperiment runs one threaded Barnes–Hut step for n bodies on a
// simulated multiprocessor and reports per-processor times, coherence
// traffic, and speedup. It demonstrates the paper's §7 SMP extension:
// locality-binned dispatch keeps each bin's working set in one private
// cache and bounds invalidations; scattering destroys both.
func NBodyExperiment(cfg Config, n int, policy Policy, seed uint64) (Result, error) {
	sys, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	as := vm.NewAddressSpace()
	bodies := nbody.NewSystem(n, seed)
	tr := nbody.NewTracer(sys.CPU(), as, n)

	l2 := cfg.Machine.L2CacheSize()
	block := core.DefaultBlockSize(l2, 3)
	if policy == Scatter {
		block = 1
	}
	sched := core.New(core.Config{CacheSize: l2, BlockSize: block})
	th := sim.NewThreads(sys.CPU(), as, sched)

	nbody.StepThreadedWith(bodies, &dispatcher{th: th, sys: sys, policy: policy}, l2, tr)
	return sys.Finish(), nil
}

// dispatcher adapts sim.Threads to nbody.Forker, switching the simulated
// processor per bin. Locality bins go to the least-loaded processor
// (bins stay intact, load stays balanced despite non-uniform bin sizes);
// segment-tour gives each processor a contiguous thread-weighted run of
// the bin tour; scatter and interleave-bins assign bins round-robin,
// deliberately splitting spatial neighbours across processors.
type dispatcher struct {
	th     *sim.Threads
	sys    *System
	policy Policy
}

func (d *dispatcher) Fork(f core.Func, a1, a2 int, h1, h2, h3 uint64) {
	d.th.Fork(f, a1, a2, h1, h2, h3)
}

func (d *dispatcher) Run(keep bool) {
	procs := d.sys.Procs()
	switch d.policy {
	case SegmentTour:
		starts := core.PartitionWeights(d.th.Sched.TourOccupancy(), procs)
		seg := 0
		d.th.RunEach(keep, func(bin, threads int) {
			for seg+1 < len(starts) && bin >= starts[seg+1] {
				seg++
			}
			d.sys.Switch(seg)
		})
	case Scatter, InterleaveBins:
		d.th.RunEach(keep, func(bin, threads int) {
			d.sys.Switch(bin % procs)
		})
	default: // LocalityBins
		load := make([]int, procs)
		d.th.RunEach(keep, func(bin, threads int) {
			p := 0
			for q := 1; q < procs; q++ {
				if load[q] < load[p] {
					p = q
				}
			}
			load[p] += threads
			d.sys.Switch(p)
		})
	}
	d.sys.Switch(0) // post-run work (integration bookkeeping) on proc 0
}

// CompareDispatch runs the N-body step under segment-tour and
// interleaved-bin dispatch on the same simulated machine — the coherence
// case for the core scheduler dealing contiguous tour segments rather
// than single bins from a shared counter. Both keep bins intact; the difference is purely whether tour
// neighbours share a processor, so the invalidation delta isolates the
// cross-bin adjacency effect.
func CompareDispatch(m machine.Machine, procs, n int, coherence bool) (segment, interleave Result, err error) {
	cfg := Config{Procs: procs, Machine: m, Coherence: coherence}
	segment, err = NBodyExperiment(cfg, n, SegmentTour, 42)
	if err != nil {
		return
	}
	interleave, err = NBodyExperiment(cfg, n, InterleaveBins, 42)
	return
}

// CompareNBody runs the experiment under both policies at the given
// processor counts and returns results keyed [policy][procIdx].
func CompareNBody(m machine.Machine, n int, procCounts []int, coherence bool) (map[Policy][]Result, error) {
	out := make(map[Policy][]Result)
	for _, pol := range []Policy{LocalityBins, Scatter} {
		for _, p := range procCounts {
			r, err := NBodyExperiment(Config{Procs: p, Machine: m, Coherence: coherence}, n, pol, 42)
			if err != nil {
				return nil, err
			}
			out[pol] = append(out[pol], r)
		}
	}
	return out, nil
}
