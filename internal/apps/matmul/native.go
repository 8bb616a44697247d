package matmul

import "threadsched/internal/core"

// Interchanged computes C = A·B with the j,k,i loop order (column-major
// storage), lifting B[k,j] into a register in the middle loop. This is the
// paper's untiled baseline ("the most common sequential method", §4.2).
func Interchanged(C, A, B []float64, n int) {
	for i := range C {
		C[i] = 0
	}
	for j := 0; j < n; j++ {
		cj := C[j*n : (j+1)*n]
		for k := 0; k < n; k++ {
			b := B[Idx(n, k, j)]
			ak := A[k*n : (k+1)*n]
			for i := 0; i < n; i++ {
				cj[i] += ak[i] * b
			}
		}
	}
}

// Transpose transposes the n×n column-major matrix m in place.
func Transpose(m []float64, n int) {
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			m[Idx(n, i, j)], m[Idx(n, j, i)] = m[Idx(n, j, i)], m[Idx(n, i, j)]
		}
	}
}

// Transposed computes C = A·B by transposing A before and after the
// computation so the dot-product inner loop accesses two sequentially
// stored vectors, with C[i,j] held in a register (§4.2). A is restored
// before returning.
func Transposed(C, A, B []float64, n int) {
	Transpose(A, n)
	for j := 0; j < n; j++ {
		bj := B[j*n : (j+1)*n]
		for i := 0; i < n; i++ {
			ai := A[i*n : (i+1)*n] // column i of Aᵀ = row i of A
			var sum float64
			for k := 0; k < n; k++ {
				sum += ai[k] * bj[k]
			}
			C[Idx(n, i, j)] = sum
		}
	}
	Transpose(A, n)
}

// TiledInterchanged computes C = A·B with the interchanged nest blocked
// for the cache (tile edge `tile`, 0 for DefaultTile) — the stand-in for
// the KAP/SGI compiler tiling of the interchanged version.
func TiledInterchanged(C, A, B []float64, n, tile int) {
	if tile <= 0 {
		tile = DefaultTile
	}
	for i := range C {
		C[i] = 0
	}
	for kk := 0; kk < n; kk += tile {
		kend := min(kk+tile, n)
		for jj := 0; jj < n; jj += tile {
			jend := min(jj+tile, n)
			for j := jj; j < jend; j++ {
				cj := C[j*n : (j+1)*n]
				for k := kk; k < kend; k++ {
					b := B[Idx(n, k, j)]
					ak := A[k*n : (k+1)*n]
					for i := 0; i < n; i++ {
						cj[i] += ak[i] * b
					}
				}
			}
		}
	}
}

// MicroBlock is the micro-tile edge of the optimized kernel: 4×4 output
// blocks, computed as two register-resident 4×2 half-blocks at six loads
// per eight multiply-adds (the 3×3 reference kernel needs six per nine
// but pays a bounds check on every load).
const MicroBlock = 4

// TiledTransposed computes C = A·B on the transposed algorithm with cache
// tiling over (i, j, k) and a register-blocked 4×4 micro-kernel,
// restoring A before returning. Every C element accumulates its k partial
// products in the same order as the 3×3 reference kernel, so results are
// bit-identical to TiledTransposedRef (and, like it, within rounding of
// Reference — the per-tile partial sums reassociate the flat dot
// product).
func TiledTransposed(C, A, B []float64, n, tile int) {
	if tile <= 0 {
		tile = DefaultTile
	}
	Transpose(A, n)
	for i := range C {
		C[i] = 0
	}
	for kk := 0; kk < n; kk += tile {
		kend := min(kk+tile, n)
		for jj := 0; jj < n; jj += tile {
			jend := min(jj+tile, n)
			for ii := 0; ii < n; ii += tile {
				iend := min(ii+tile, n)
				tiledTransposedKernel(C, A, B, n, ii, iend, jj, jend, kk, kend)
			}
		}
	}
	Transpose(A, n)
}

// tiledTransposedKernel multiplies one tile on 4×4 micro-blocks, each
// computed as two register-resident 4×2 half-blocks: eight accumulators
// plus six streamed operands fit the sixteen vector registers (sixteen
// live accumulators would spill on every iteration), and the slices are
// cut to the exact k extent and length-matched so the compiler proves
// every indexed load in range and drops the bounds checks.
func tiledTransposedKernel(C, At, B []float64, n, ii, iend, jj, jend, kk, kend int) {
	i := ii
	for ; i+MicroBlock <= iend; i += MicroBlock {
		a0 := At[(i+0)*n+kk : (i+0)*n+kend]
		a1 := At[(i+1)*n+kk : (i+1)*n+kend]
		a1 = a1[:len(a0)]
		a2 := At[(i+2)*n+kk : (i+2)*n+kend]
		a2 = a2[:len(a0)]
		a3 := At[(i+3)*n+kk : (i+3)*n+kend]
		a3 = a3[:len(a0)]
		j := jj
		for ; j+2 <= jend; j += 2 {
			b0 := B[(j+0)*n+kk : (j+0)*n+kend]
			b0 = b0[:len(a0)]
			b1 := B[(j+1)*n+kk : (j+1)*n+kend]
			b1 = b1[:len(a0)]
			var c00, c01, c10, c11, c20, c21, c30, c31 float64
			for k := range a0 {
				av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
				bv0, bv1 := b0[k], b1[k]
				c00 += av0 * bv0
				c01 += av0 * bv1
				c10 += av1 * bv0
				c11 += av1 * bv1
				c20 += av2 * bv0
				c21 += av2 * bv1
				c30 += av3 * bv0
				c31 += av3 * bv1
			}
			C[Idx(n, i+0, j+0)] += c00
			C[Idx(n, i+0, j+1)] += c01
			C[Idx(n, i+1, j+0)] += c10
			C[Idx(n, i+1, j+1)] += c11
			C[Idx(n, i+2, j+0)] += c20
			C[Idx(n, i+2, j+1)] += c21
			C[Idx(n, i+3, j+0)] += c30
			C[Idx(n, i+3, j+1)] += c31
		}
		// Remainder column of this row block.
		for ; j < jend; j++ {
			b0 := B[j*n+kk : j*n+kend]
			b0 = b0[:len(a0)]
			var c0, c1, c2, c3 float64
			for k := range a0 {
				bv := b0[k]
				c0 += a0[k] * bv
				c1 += a1[k] * bv
				c2 += a2[k] * bv
				c3 += a3[k] * bv
			}
			C[Idx(n, i+0, j)] += c0
			C[Idx(n, i+1, j)] += c1
			C[Idx(n, i+2, j)] += c2
			C[Idx(n, i+3, j)] += c3
		}
	}
	// Remainder rows.
	for ; i < iend; i++ {
		ai := At[i*n : (i+1)*n]
		for j := jj; j < jend; j++ {
			bj := B[j*n : (j+1)*n]
			var sum float64
			for k := kk; k < kend; k++ {
				sum += ai[k] * bj[k]
			}
			C[Idx(n, i, j)] += sum
		}
	}
}

// TiledTransposedRef is the pre-optimization tiled transposed variant with
// the paper's 3×3 register blocking, kept as the differential-test oracle
// and speedup baseline for the 4×4 micro-kernel.
func TiledTransposedRef(C, A, B []float64, n, tile int) {
	if tile <= 0 {
		tile = DefaultTile
	}
	Transpose(A, n)
	for i := range C {
		C[i] = 0
	}
	for kk := 0; kk < n; kk += tile {
		kend := min(kk+tile, n)
		for jj := 0; jj < n; jj += tile {
			jend := min(jj+tile, n)
			for ii := 0; ii < n; ii += tile {
				iend := min(ii+tile, n)
				tiledTransposedKernelRef(C, A, B, n, ii, iend, jj, jend, kk, kend)
			}
		}
	}
	Transpose(A, n)
}

// tiledTransposedKernelRef multiplies one tile with 3×3 register blocking:
// nine accumulators held across the k loop, six loads per nine
// multiply-adds, stores only at tile edges — the instruction/reference
// shape §4.2 attributes to the KAP-tiled inner loop.
func tiledTransposedKernelRef(C, At, B []float64, n, ii, iend, jj, jend, kk, kend int) {
	i := ii
	for ; i+RegisterBlock <= iend; i += RegisterBlock {
		j := jj
		for ; j+RegisterBlock <= jend; j += RegisterBlock {
			var c00, c01, c02, c10, c11, c12, c20, c21, c22 float64
			a0 := At[(i+0)*n : (i+1)*n]
			a1 := At[(i+1)*n : (i+2)*n]
			a2 := At[(i+2)*n : (i+3)*n]
			b0 := B[(j+0)*n : (j+1)*n]
			b1 := B[(j+1)*n : (j+2)*n]
			b2 := B[(j+2)*n : (j+3)*n]
			for k := kk; k < kend; k++ {
				av0, av1, av2 := a0[k], a1[k], a2[k]
				bv0, bv1, bv2 := b0[k], b1[k], b2[k]
				c00 += av0 * bv0
				c01 += av0 * bv1
				c02 += av0 * bv2
				c10 += av1 * bv0
				c11 += av1 * bv1
				c12 += av1 * bv2
				c20 += av2 * bv0
				c21 += av2 * bv1
				c22 += av2 * bv2
			}
			C[Idx(n, i+0, j+0)] += c00
			C[Idx(n, i+0, j+1)] += c01
			C[Idx(n, i+0, j+2)] += c02
			C[Idx(n, i+1, j+0)] += c10
			C[Idx(n, i+1, j+1)] += c11
			C[Idx(n, i+1, j+2)] += c12
			C[Idx(n, i+2, j+0)] += c20
			C[Idx(n, i+2, j+1)] += c21
			C[Idx(n, i+2, j+2)] += c22
		}
		// Remainder columns of this row block.
		for ; j < jend; j++ {
			for di := 0; di < RegisterBlock; di++ {
				var sum float64
				ai := At[(i+di)*n : (i+di+1)*n]
				bj := B[j*n : (j+1)*n]
				for k := kk; k < kend; k++ {
					sum += ai[k] * bj[k]
				}
				C[Idx(n, i+di, j)] += sum
			}
		}
	}
	// Remainder rows.
	for ; i < iend; i++ {
		ai := At[i*n : (i+1)*n]
		for j := jj; j < jend; j++ {
			bj := B[j*n : (j+1)*n]
			var sum float64
			for k := kk; k < kend; k++ {
				sum += ai[k] * bj[k]
			}
			C[Idx(n, i, j)] += sum
		}
	}
}

// Threaded computes C = A·B the paper's way (§2.1): A is transposed, one
// fine-grained thread per dot product is forked with the two column base
// addresses as hints, and the scheduler runs the threads bin by bin. The
// hint addresses are synthetic but preserve the layout of the real data,
// which is all the binning algorithm consumes. A is restored before
// returning.
// With a ParallelScheduler, Run drains the bins on the worker pool; the
// fork loop stays on the calling goroutine (Fork is single-producer).
// Bin contents and RunStats depend only on the hints, so serial and
// parallel runs produce identical locality statistics.
func Threaded(C, A, B []float64, n int, sched *core.Scheduler) {
	Transpose(A, n)
	const aBase = 0x1000_0000
	bBase := aBase + uint64(n*n*8)
	// One closure for every thread: forking must stay allocation-free.
	dot := func(i, j int) {
		ai := A[i*n : (i+1)*n]
		bj := B[j*n : (j+1)*n]
		var sum float64
		for k := 0; k < n; k++ {
			sum += ai[k] * bj[k]
		}
		C[Idx(n, i, j)] = sum
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sched.Fork(dot, i, j, aBase+uint64(i*n*8), bBase+uint64(j*n*8), 0)
		}
	}
	sched.Run(false)
	Transpose(A, n)
}
