package sim

import (
	"threadsched/internal/core"
	"threadsched/internal/vm"
)

// Threads wraps a core.Scheduler so traced workloads charge the thread
// package's own costs to the simulation, the way the paper's Pixie traces
// included the C package's instructions and references. Each fork executes
// ForkInstr instructions and stores a thread record (three words) into a
// recycled thread-group arena; each thread start executes RunInstr
// instructions and loads the record back. Recycling the arena reproduces
// the paper's working assumption that "thread creation doesn't cause cache
// misses": group memory stays hot.
type Threads struct {
	Sched *core.Scheduler
	cpu   *CPU

	// ForkInstr and RunInstr are the modelled per-thread instruction
	// costs. The defaults approximate Table 1's measured overheads on the
	// R8000 (1.38 µs ≈ ~100 cycles to fork, 0.22 µs ≈ ~16 cycles to run).
	ForkInstr, RunInstr int

	arenaBase  uint64
	arenaSlots uint64
	slot       uint64
	forkPC     uint64
	runPC      uint64
}

// threadRecBytes is the modelled size of one thread record: a function
// pointer and two arguments (§3.2).
const threadRecBytes = 24

// defaultArenaSlots bounds the recycled group arena; with 24-byte records
// this is a 96 KiB region, a few thread groups' worth.
const defaultArenaSlots = 4096

// NewThreads builds the traced scheduler wrapper, allocating the group
// arena from as.
func NewThreads(cpu *CPU, as *vm.AddressSpace, sched *core.Scheduler) *Threads {
	return &Threads{
		Sched:      sched,
		cpu:        cpu,
		ForkInstr:  100,
		RunInstr:   16,
		arenaBase:  as.Alloc(defaultArenaSlots*threadRecBytes, 64),
		arenaSlots: defaultArenaSlots,
		forkPC:     0x2000,
		runPC:      0x2100,
	}
}

// Fork charges the fork cost, writes the simulated thread record, and
// schedules f. The run cost and record reload are charged when the thread
// starts.
func (t *Threads) Fork(f core.Func, arg1, arg2 int, h1, h2, h3 uint64) {
	t.cpu.Exec(t.forkPC, t.ForkInstr)
	rec := t.arenaBase + (t.slot%t.arenaSlots)*threadRecBytes
	t.slot++
	t.cpu.Store(rec, 8)
	t.cpu.Store(rec+8, 8)
	t.cpu.Store(rec+16, 8)
	t.Sched.Fork(func(a1, a2 int) {
		t.cpu.Exec(t.runPC, t.RunInstr)
		t.cpu.Load(rec, 8)
		t.cpu.Load(rec+8, 8)
		t.cpu.Load(rec+16, 8)
		f(a1, a2)
	}, arg1, arg2, h1, h2, h3)
}

// Run runs the scheduled threads; see core.Scheduler.Run.
func (t *Threads) Run(keep bool) { t.Sched.Run(keep) }

// RunEach runs the scheduled threads with a per-bin hook; see
// core.Scheduler.RunEach.
func (t *Threads) RunEach(keep bool, beforeBin func(bin, threads int)) {
	t.Sched.RunEach(keep, beforeBin)
}
