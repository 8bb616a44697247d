package sor

import (
	"threadsched/internal/sim"
	"threadsched/internal/vm"
)

// TracedArray is the instrumented SOR workload. Instruction budget: the
// paper's compilers "simply unroll the inner-most loop"; we charge 10
// instructions per point (5 loads, 1 store) and 4 per column of loop
// control.
type TracedArray struct {
	CPU *sim.CPU
	N   int
	A   *sim.Matrix
}

const (
	pointInstr = 10
	colInstr   = 4
	pcPoint    = 0x100
	pcColumn   = 0x180
)

// NewTracedArray allocates the array in simulated memory with the same
// initial state as NewArray.
func NewTracedArray(cpu *sim.CPU, as *vm.AddressSpace, n int) *TracedArray {
	t := &TracedArray{CPU: cpu, N: n, A: sim.NewMatrix(cpu, as, n, n, true)}
	fill(t.A.Data(), n)
	return t
}

// relaxColumn applies the stencil down interior column j, emitting the
// reference stream. The just-stored A[i,j] value is re-used from a
// register for the next point's A[i−1,j] operand — matching the natural
// compiled code — so each point costs 4 memory loads and 1 store after
// the first.
func (t *TracedArray) relaxColumn(j int) {
	t.CPU.Exec(pcColumn, colInstr)
	n := t.N
	prev := t.A.Load(0, j) // A[i-1,j] for i=1
	for i := 1; i < n-1; i++ {
		t.CPU.Exec(pcPoint, pointInstr)
		v := 0.2 * (t.A.Load(i, j) + t.A.Load(i+1, j) + prev +
			t.A.Load(i, j+1) + t.A.Load(i, j-1))
		t.A.Store(i, j, v)
		prev = v
	}
}

// Untiled runs t sweeps in storage order against simulated memory.
func (t *TracedArray) Untiled(iters int) {
	for it := 0; it < iters; it++ {
		for j := 1; j < t.N-1; j++ {
			t.relaxColumn(j)
		}
	}
}

// HandTiled runs the time-skewed tiling against simulated memory; see the
// native HandTiled for the schedule.
func (t *TracedArray) HandTiled(iters, s, timeBlock int) {
	if s <= 0 {
		s = DefaultStrip
	}
	if timeBlock <= 0 || timeBlock > iters {
		timeBlock = iters
	}
	n := t.N
	for t0 := 0; t0 < iters; t0 += timeBlock {
		tEnd := t0 + timeBlock
		if tEnd > iters {
			tEnd = iters
		}
		depth := tEnd - t0
		for k0 := 1 - s; k0 <= n-2+depth; k0 += s {
			for rel := 1; rel <= depth; rel++ {
				lo := k0 - rel
				hi := lo + s - 1
				if lo < 1 {
					lo = 1
				}
				if hi > n-2 {
					hi = n - 2
				}
				for j := lo; j <= hi; j++ {
					t.relaxColumn(j)
				}
			}
		}
	}
}

// Threaded forks one traced thread per (iteration, column) — all before a
// single run — hinted with the simulated addresses bounding the thread's
// column window, as in the paper's code.
func (t *TracedArray) Threaded(iters int, th *sim.Threads) {
	n := t.N
	for it := 0; it < iters; it++ {
		for j := 1; j < n-1; j++ {
			th.Fork(func(j, _ int) {
				t.relaxColumn(j)
			}, j, 0, t.A.Addr(0, j-1), t.A.Addr(n-1, j+1), 0)
		}
	}
	th.Run(false)
}
