package harness

import (
	"threadsched/internal/apps/matmul"
	"threadsched/internal/apps/nbody"
	"threadsched/internal/apps/pde"
	"threadsched/internal/apps/sor"
	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/vm"
)

// job is a resolved JobSpec: everything one simulation depends on beyond
// the Config's problem sizes, with every default filled in. It is a
// comparable value, so two rows that would run the same simulation
// resolve to equal jobs, whichever table declares them.
type job struct {
	kind    JobKind
	variant string // lower case, one of jobVariants[kind]
	machine machine.Machine
	// block is the scheduler block size of a threaded variant (the
	// variant's paper default unless the spec overrides it); 0 for every
	// other variant.
	block uint64
	// steps is the N-body step count; 0 for the other kinds.
	steps int
	// tour is the scheduler's bin traversal. No spec sets it: only the
	// tour ablation runs a non-default tour.
	tour core.TourOrder
}

// jobVariants lists each kind's variants, in its time table's row order;
// "threaded" is the one that forks threads through the locality
// scheduler.
var jobVariants = map[JobKind][]string{
	JobMatmul: {"interchanged", "transposed", "tiled-interchanged", "tiled-transposed", "threaded"},
	JobPDE:    {"regular", "cache-conscious", "threaded"},
	JobSOR:    {"untiled", "hand-tiled", "threaded"},
	JobNBody:  {"unthreaded", "threaded"},
}

// defaultBlock is the paper's scheduler block size for a threaded kind
// on an L2 of l2 bytes: half the cache per dimension for the two-hint
// dense kernels, the three-dimension default for N-body.
func defaultBlock(kind JobKind, l2 uint64) uint64 {
	if kind == JobNBody {
		return core.DefaultBlockSize(l2, 3)
	}
	return l2 / 2
}

// run simulates one resolved job on its machine: the one path every
// table row and every served job takes.
func (c Config) run(j job) SimResult {
	l2 := j.machine.L2CacheSize()
	return c.simulate(j.machine, func(cpu *sim.CPU, as *vm.AddressSpace) *core.Scheduler {
		var sched *core.Scheduler
		// threads builds the scheduler once the workload has laid out its
		// data, so the thread records sit where they always have.
		threads := func() *sim.Threads {
			sched = core.New(core.Config{CacheSize: l2, BlockSize: j.block, Tour: j.tour, Obs: c.Obs})
			return sim.NewThreads(cpu, as, sched)
		}
		switch j.kind {
		case JobMatmul:
			tr := matmul.NewTraced(cpu, as, c.MatmulN)
			switch j.variant {
			case "interchanged":
				tr.Interchanged()
			case "transposed":
				tr.Transposed()
			case "tiled-interchanged":
				tr.TiledInterchanged(matmul.TileFor(l2))
			case "tiled-transposed":
				tr.TiledTransposed(matmul.TileFor(l2))
			case "threaded":
				tr.Threaded(threads())
			}
		case JobPDE:
			g := pde.NewTracedGrid(cpu, as, c.PDEN)
			switch j.variant {
			case "regular":
				g.Regular(c.PDEIters)
			case "cache-conscious":
				g.CacheConscious(c.PDEIters)
			case "threaded":
				g.Threaded(c.PDEIters, threads())
			}
		case JobSOR:
			tr := sor.NewTracedArray(cpu, as, c.SORN)
			switch j.variant {
			case "untiled":
				tr.Untiled(c.SORIters)
			case "hand-tiled":
				s, tb := c.SORStrip, 0
				if s == 0 {
					s, tb = sor.TileParams(c.SORN, c.SORIters, l2)
				}
				tr.HandTiled(c.SORIters, s, tb)
			case "threaded":
				tr.Threaded(c.SORIters, threads())
			}
		case JobNBody:
			s := nbody.NewSystem(c.NBodyN, 42)
			tr := nbody.NewTracer(cpu, as, c.NBodyN)
			// One tree per job, rebuilt in place every step.
			t := &nbody.Tree{}
			if j.variant == "threaded" {
				th := threads()
				for i := 0; i < j.steps; i++ {
					nbody.StepThreadedTraced(s, t, th, tr)
				}
			} else {
				for i := 0; i < j.steps; i++ {
					nbody.StepUnthreadedReuse(s, t, tr)
				}
			}
		}
		return sched
	})
}

// RunNBodyThreadedTour simulates one step of the threaded N-body on
// machine m with a bin tour order, for the tour ablation.
func (c Config) RunNBodyThreadedTour(m machine.Machine, tour core.TourOrder) SimResult {
	return c.run(job{kind: JobNBody, variant: "threaded", machine: m,
		block: defaultBlock(JobNBody, m.L2CacheSize()), steps: 1, tour: tour})
}
