package matmul

import (
	"threadsched/internal/core"
	"threadsched/internal/sim"
	"threadsched/internal/vm"
)

// Traced is the instrumented matrix-multiply workload: the same five
// variants as the native API, run against simulated memory so every load,
// store, and instruction reaches the attached recorder. The per-iteration
// instruction budgets follow §4.2's disassembly discussion: 10
// instructions per 2 multiply-adds for the untiled interchanged inner
// loop, 18 per 9 for the register-blocked tiled kernel, and 14 per 4 for
// the transposed/threaded dot product.
type Traced struct {
	CPU     *sim.CPU
	N       int
	A, B, C *sim.Matrix
}

// Instruction-budget constants from the paper's inner-loop analysis.
const (
	interchangedUnroll = 2
	interchangedInstr  = 10
	dotUnroll          = 4
	dotInstr           = 14
	regTileInstr       = 18
	transposeInstr     = 8 // per element pair swapped
	loopOverheadInstr  = 4 // per middle-loop iteration
)

// Simulated text offsets for the distinct inner loops, so instruction
// fetches from different kernels occupy distinct I-cache lines.
const (
	pcInterchanged = 0x100
	pcDot          = 0x200
	pcRegTile      = 0x300
	pcTranspose    = 0x400
	pcOuter        = 0x500
	pcZero         = 0x600
)

// NewTraced allocates and fills the three matrices in simulated memory.
// The address space is shared so experiments can co-locate other state
// (e.g. the traced scheduler arena).
func NewTraced(cpu *sim.CPU, as *vm.AddressSpace, n int) *Traced {
	t := &Traced{
		CPU: cpu,
		N:   n,
		A:   sim.NewMatrix(cpu, as, n, n, true),
		B:   sim.NewMatrix(cpu, as, n, n, true),
		C:   sim.NewMatrix(cpu, as, n, n, true),
	}
	Fill(t.A.Data(), n, 1.0)
	Fill(t.B.Data(), n, 2.0)
	return t
}

// zeroC models the C-initialization sweep.
func (t *Traced) zeroC() {
	n := t.N
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			t.CPU.Exec(pcZero, 2)
			t.C.Store(i, j, 0)
		}
	}
}

// transposeA models the in-place transpose of A (2 loads, 2 stores, and
// transposeInstr instructions per swapped pair).
func (t *Traced) transposeA() {
	n := t.N
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			t.CPU.Exec(pcTranspose, transposeInstr)
			a := t.A.Load(i, j)
			b := t.A.Load(j, i)
			t.A.Store(i, j, b)
			t.A.Store(j, i, a)
		}
	}
}

// Interchanged runs the untiled j,k,i nest: B[k,j] in a register, two
// loads and a store per multiply-add.
func (t *Traced) Interchanged() {
	n := t.N
	t.zeroC()
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			t.CPU.Exec(pcOuter, loopOverheadInstr)
			b := t.B.Load(k, j)
			for i := 0; i < n; i += interchangedUnroll {
				t.CPU.Exec(pcInterchanged, interchangedInstr)
				for u := i; u < i+interchangedUnroll && u < n; u++ {
					c := t.C.Load(u, j)
					t.C.Store(u, j, c+t.A.Load(u, k)*b)
				}
			}
		}
	}
}

// dot computes the transposed-algorithm dot product of Aᵀ column i (i.e.
// row i of the already-transposed A) and B column j, storing into C[i,j]:
// two loads per multiply-add, the accumulator and store in registers.
func (t *Traced) dot(i, j int) {
	n := t.N
	var sum float64
	for k := 0; k < n; k += dotUnroll {
		t.CPU.Exec(pcDot, dotInstr)
		for u := k; u < k+dotUnroll && u < n; u++ {
			sum += t.A.Load(u, i) * t.B.Load(u, j)
		}
	}
	t.C.Store(i, j, sum)
}

// Transposed runs the transposed variant: transpose A, dot products, and
// transpose back — both transposes charged, as in the paper's timings.
func (t *Traced) Transposed() {
	n := t.N
	t.transposeA()
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			t.CPU.Exec(pcOuter, loopOverheadInstr)
			t.dot(i, j)
		}
	}
	t.transposeA()
}

// TiledInterchanged runs the cache-tiled interchanged nest with 3×3
// register blocking, the stand-in for the compiler-tiled version the
// paper's Table 3 simulates. Tile 0 selects DefaultTile.
func (t *Traced) TiledInterchanged(tile int) {
	if tile <= 0 {
		tile = DefaultTile
	}
	n := t.N
	t.zeroC()
	for kk := 0; kk < n; kk += tile {
		kend := min(kk+tile, n)
		for jj := 0; jj < n; jj += tile {
			jend := min(jj+tile, n)
			for ii := 0; ii < n; ii += tile {
				iend := min(ii+tile, n)
				t.regKernel(ii, iend, jj, jend, kk, kend, false)
			}
		}
	}
}

// TiledTransposed runs the cache-tiled transposed variant (transposes
// charged) with the same register-blocked kernel reading Aᵀ.
func (t *Traced) TiledTransposed(tile int) {
	if tile <= 0 {
		tile = DefaultTile
	}
	n := t.N
	t.transposeA()
	t.zeroC()
	for kk := 0; kk < n; kk += tile {
		kend := min(kk+tile, n)
		for jj := 0; jj < n; jj += tile {
			jend := min(jj+tile, n)
			for ii := 0; ii < n; ii += tile {
				iend := min(ii+tile, n)
				t.regKernel(ii, iend, jj, jend, kk, kend, true)
			}
		}
	}
	t.transposeA()
}

// loadA reads A[i,k] (or Aᵀ's (k,i) element when transposed, which is the
// same storage cell as row-i-of-A after transposeA has run).
func (t *Traced) loadA(i, k int, transposed bool) float64 {
	if transposed {
		return t.A.Load(k, i)
	}
	return t.A.Load(i, k)
}

// regKernel is the register-blocked tile kernel: RegisterBlock² (=9)
// accumulators live across the k loop, 2·RegisterBlock (=6) loads per
// regTileInstr (=18) instructions, C written once per tile edge.
func (t *Traced) regKernel(ii, iend, jj, jend, kk, kend int, transposed bool) {
	i := ii
	for ; i < iend; i += RegisterBlock {
		ilim := min(i+RegisterBlock, iend)
		j := jj
		for ; j < jend; j += RegisterBlock {
			jlim := min(j+RegisterBlock, jend)
			t.CPU.Exec(pcOuter, loopOverheadInstr)
			var acc [RegisterBlock][RegisterBlock]float64
			for k := kk; k < kend; k++ {
				t.CPU.Exec(pcRegTile, regTileInstr)
				var av, bv [RegisterBlock]float64
				for di := i; di < ilim; di++ {
					av[di-i] = t.loadA(di, k, transposed)
				}
				for dj := j; dj < jlim; dj++ {
					bv[dj-j] = t.B.Load(k, dj)
				}
				for di := 0; di < ilim-i; di++ {
					for dj := 0; dj < jlim-j; dj++ {
						acc[di][dj] += av[di] * bv[dj]
					}
				}
			}
			for di := i; di < ilim; di++ {
				for dj := j; dj < jlim; dj++ {
					c := t.C.Load(di, dj)
					t.C.Store(di, dj, c+acc[di-i][dj-j])
				}
			}
		}
	}
}

// Threaded runs the paper's threaded variant: transpose A, fork one
// thread per dot product through the traced scheduler wrapper with the
// two column base addresses as hints, run, transpose back.
func (t *Traced) Threaded(th *sim.Threads) {
	n := t.N
	t.transposeA()
	// One closure for every thread, as in native Threaded.
	dot := func(i, j int) { t.dot(i, j) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			th.Fork(dot, i, j, t.A.Addr(0, i), t.B.Addr(0, j), 0)
		}
	}
	th.Run(false)
	t.transposeA()
}

// ThreadedEach is Threaded with a per-bin hook forwarded to the
// scheduler (see core.Scheduler.RunEach); the harness uses it to measure
// per-bin working sets and to dispatch bins across simulated processors.
func (t *Traced) ThreadedEach(th *sim.Threads, beforeBin func(bin, threads int)) {
	n := t.N
	t.transposeA()
	// One closure for every thread, as in native Threaded.
	dot := func(i, j int) { t.dot(i, j) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			th.Fork(dot, i, j, t.A.Addr(0, i), t.B.Addr(0, j), 0)
		}
	}
	th.RunEach(false, beforeBin)
	t.transposeA()
}

// ThreadedScheduler builds the scheduler configuration the paper used for
// matmul: two-dimensional hints with the block size set to half the
// second-level cache size (§4.2).
func ThreadedScheduler(l2Size uint64) *core.Scheduler {
	return core.New(core.Config{CacheSize: l2Size, BlockSize: l2Size / 2})
}

// ParallelScheduler is ThreadedScheduler's multicore counterpart: the same
// binning plus the segmented parallel run across workers. Close it to
// release the worker pool.
func ParallelScheduler(l2Size uint64, workers int) *core.Scheduler {
	return core.New(core.Config{
		CacheSize: l2Size,
		BlockSize: l2Size / 2,
		Workers:   workers,
	})
}
