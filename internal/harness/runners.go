package harness

import (
	"threadsched/internal/apps/matmul"
	"threadsched/internal/apps/nbody"
	"threadsched/internal/apps/pde"
	"threadsched/internal/apps/sor"
	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/obs"
	"threadsched/internal/sim"
	"threadsched/internal/vm"
)

// schedOverride builds a scheduler for a threaded variant: blockSize 0
// selects the variant's paper default; tour selects the bin traversal;
// obs (set by the runner constructors from Config.Obs) attaches the
// observability layer.
type schedOverride struct {
	blockSize uint64
	tour      core.TourOrder
	obs       *obs.Obs
}

func (o schedOverride) build(l2 uint64, defaultBlock uint64) *core.Scheduler {
	block := o.blockSize
	if block == 0 {
		block = defaultBlock
	}
	return core.New(core.Config{CacheSize: l2, BlockSize: block, Tour: o.tour, Obs: o.obs})
}

// Matrix multiply runners (Tables 2, 3; Figure 4).

// MatmulVariant names a matmul variant.
type MatmulVariant int

// Matmul variant identifiers, in Table 2 row order.
const (
	MatmulInterchanged MatmulVariant = iota
	MatmulTransposed
	MatmulTiledInterchanged
	MatmulTiledTransposed
	MatmulThreaded
)

func (c Config) matmulRunner(v MatmulVariant, m machine.Machine, o schedOverride) runner {
	n := c.MatmulN
	o.obs = c.Obs
	return func(cpu *sim.CPU, as *vm.AddressSpace) *core.Scheduler {
		tr := matmul.NewTraced(cpu, as, n)
		switch v {
		case MatmulInterchanged:
			tr.Interchanged()
		case MatmulTransposed:
			tr.Transposed()
		case MatmulTiledInterchanged:
			tr.TiledInterchanged(matmul.TileFor(m.L2CacheSize()))
		case MatmulTiledTransposed:
			tr.TiledTransposed(matmul.TileFor(m.L2CacheSize()))
		case MatmulThreaded:
			sched := o.build(m.L2CacheSize(), m.L2CacheSize()/2)
			th := sim.NewThreads(cpu, as, sched)
			tr.Threaded(th)
			return sched
		}
		return nil
	}
}

// RunMatmul simulates one matmul variant on machine m.
func (c Config) RunMatmul(v MatmulVariant, m machine.Machine) SimResult {
	return c.simulate(m, c.matmulRunner(v, m, schedOverride{}))
}

// RunMatmulThreadedBlock simulates the threaded matmul with an explicit
// scheduler block size (Figure 4 sweeps this).
func (c Config) RunMatmulThreadedBlock(m machine.Machine, block uint64) SimResult {
	return c.simulate(m, c.matmulRunner(MatmulThreaded, m, schedOverride{blockSize: block}))
}

// PDE runners (Tables 4, 5; Figure 4).

// PDEVariant names a PDE variant.
type PDEVariant int

// PDE variant identifiers, in Table 4 row order.
const (
	PDERegular PDEVariant = iota
	PDECacheConscious
	PDEThreaded
)

func (c Config) pdeRunner(v PDEVariant, m machine.Machine, o schedOverride) runner {
	n, iters := c.PDEN, c.PDEIters
	o.obs = c.Obs
	return func(cpu *sim.CPU, as *vm.AddressSpace) *core.Scheduler {
		g := pde.NewTracedGrid(cpu, as, n)
		switch v {
		case PDERegular:
			g.Regular(iters)
		case PDECacheConscious:
			g.CacheConscious(iters)
		case PDEThreaded:
			sched := o.build(m.L2CacheSize(), m.L2CacheSize()/2)
			th := sim.NewThreads(cpu, as, sched)
			g.Threaded(iters, th)
			return sched
		}
		return nil
	}
}

// RunPDE simulates one PDE variant on machine m.
func (c Config) RunPDE(v PDEVariant, m machine.Machine) SimResult {
	return c.simulate(m, c.pdeRunner(v, m, schedOverride{}))
}

// RunPDEThreadedBlock simulates the threaded PDE with an explicit block
// size.
func (c Config) RunPDEThreadedBlock(m machine.Machine, block uint64) SimResult {
	return c.simulate(m, c.pdeRunner(PDEThreaded, m, schedOverride{blockSize: block}))
}

// SOR runners (Tables 6, 7; Figure 4).

// SORVariant names a SOR variant.
type SORVariant int

// SOR variant identifiers, in Table 6 row order.
const (
	SORUntiled SORVariant = iota
	SORHandTiled
	SORThreaded
)

func (c Config) sorRunner(v SORVariant, m machine.Machine, o schedOverride) runner {
	n, iters := c.SORN, c.SORIters
	o.obs = c.Obs
	return func(cpu *sim.CPU, as *vm.AddressSpace) *core.Scheduler {
		tr := sor.NewTracedArray(cpu, as, n)
		switch v {
		case SORUntiled:
			tr.Untiled(iters)
		case SORHandTiled:
			s, tb := c.SORStrip, 0
			if s == 0 {
				s, tb = sor.TileParams(n, iters, m.L2CacheSize())
			}
			tr.HandTiled(iters, s, tb)
		case SORThreaded:
			sched := o.build(m.L2CacheSize(), m.L2CacheSize()/2)
			th := sim.NewThreads(cpu, as, sched)
			tr.Threaded(iters, th)
			return sched
		}
		return nil
	}
}

// RunSOR simulates one SOR variant on machine m.
func (c Config) RunSOR(v SORVariant, m machine.Machine) SimResult {
	return c.simulate(m, c.sorRunner(v, m, schedOverride{}))
}

// RunSORThreadedBlock simulates the threaded SOR with an explicit block
// size.
func (c Config) RunSORThreadedBlock(m machine.Machine, block uint64) SimResult {
	return c.simulate(m, c.sorRunner(SORThreaded, m, schedOverride{blockSize: block}))
}

// N-body runners (Tables 8, 9; Figure 4).

// NBodyVariant names an N-body variant.
type NBodyVariant int

// N-body variant identifiers, in Table 8 row order.
const (
	NBodyUnthreaded NBodyVariant = iota
	NBodyThreaded
)

func (c Config) nbodyRunner(v NBodyVariant, m machine.Machine, steps int, o schedOverride) runner {
	n := c.NBodyN
	o.obs = c.Obs
	return func(cpu *sim.CPU, as *vm.AddressSpace) *core.Scheduler {
		s := nbody.NewSystem(n, 42)
		tr := nbody.NewTracer(cpu, as, n)
		// One tree per job, rebuilt in place every step.
		t := &nbody.Tree{}
		switch v {
		case NBodyUnthreaded:
			for i := 0; i < steps; i++ {
				nbody.StepUnthreadedReuse(s, t, tr)
			}
		case NBodyThreaded:
			sched := o.build(m.L2CacheSize(), core.DefaultBlockSize(m.L2CacheSize(), 3))
			th := sim.NewThreads(cpu, as, sched)
			for i := 0; i < steps; i++ {
				nbody.StepThreadedTraced(s, t, th, tr)
			}
			return sched
		}
		return nil
	}
}

// RunNBody simulates one N-body variant for the given number of steps.
func (c Config) RunNBody(v NBodyVariant, m machine.Machine, steps int) SimResult {
	return c.simulate(m, c.nbodyRunner(v, m, steps, schedOverride{}))
}

// RunNBodyThreadedBlock simulates the threaded N-body (one step) with an
// explicit block size.
func (c Config) RunNBodyThreadedBlock(m machine.Machine, block uint64) SimResult {
	return c.simulate(m, c.nbodyRunner(NBodyThreaded, m, 1, schedOverride{blockSize: block}))
}

// RunNBodyThreadedTour simulates the threaded N-body with a bin tour
// order, for the tour ablation.
func (c Config) RunNBodyThreadedTour(m machine.Machine, tour core.TourOrder) SimResult {
	return c.simulate(m, c.nbodyRunner(NBodyThreaded, m, 1, schedOverride{tour: tour}))
}
