// Package sor implements the paper's §4.3 second workload: the SOR kernel
// from the compiler literature (Lam, Rothberg & Wolf) — t Jacobi-flavoured
// Gauss–Seidel sweeps of the five-point averaging stencil
//
//	A[i,j] = 0.2·(A[i,j] + A[i+1,j] + A[i−1,j] + A[i,j+1] + A[i,j−1])
//
// over an n×n column-major array (paper: n = 2005, t = 30, tile s = 18).
//
// Three variants, as evaluated in Tables 6 and 7:
//
//   - Untiled: t full sweeps in storage order (columns outer, rows inner —
//     the good loop order for column-major data); every sweep streams the
//     whole array through the cache.
//   - HandTiled: time-skewed column-strip tiling — each strip of s columns
//     advances through blocks of time steps while its working set stays
//     cached, the dependence-respecting blocked schedule of the kind the
//     paper's hand-tiled version (after Lam et al.) uses. Bit-for-bit
//     identical to Untiled.
//   - Threaded: one fine-grained thread per (iteration, column), all
//     t·(n−2) threads forked before a single run (§4.3's code forks inside
//     the time loop and calls th_run once). Binning clusters the same
//     columns across iterations, so each bin relaxes a strip of columns
//     through all t time steps while it is cache-resident. This reorders
//     updates across strip boundaries — legitimate for an asynchronous
//     iteration whose goal is convergence ("Although there are data
//     dependencies among threads, the algorithm works fine because the
//     goal is to reach convergence").
package sor

// NewArray allocates an n×n column-major array with a deterministic,
// boundary-inclusive initial state.
func NewArray(n int) []float64 {
	a := make([]float64, n*n)
	fill(a, n)
	return a
}

// fill writes NewArray's initial state into the n×n column-major a.
func fill(a []float64, n int) {
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a[j*n+i] = float64((i*5+j*11)%17) - 8.0
		}
	}
}

// relaxColumn applies the stencil down interior column j, carrying the
// just-written col[i−1] in a register instead of reloading it through the
// store. Operand order matches relaxColumnRef exactly (Go's + is
// left-associative), so the result is bit-identical.
func relaxColumn(a []float64, n, j int) {
	col := a[j*n : (j+1)*n]
	left := a[(j-1)*n : j*n]
	right := a[(j+1)*n : (j+2)*n]
	prev := col[0]
	for i := 1; i < n-1; i++ {
		v := 0.2 * (col[i] + col[i+1] + prev + right[i] + left[i])
		col[i] = v
		prev = v
	}
}

// relaxColumnRef is the pre-optimization stencil kept as the
// differential-test oracle for relaxColumn and relaxColumnPair.
func relaxColumnRef(a []float64, n, j int) {
	col := a[j*n : (j+1)*n]
	left := a[(j-1)*n : j*n]
	right := a[(j+1)*n : (j+2)*n]
	for i := 1; i < n-1; i++ {
		col[i] = 0.2 * (col[i] + col[i+1] + col[i-1] + right[i] + left[i])
	}
}

// relaxColumnPair relaxes interior columns j and j+1 in one software-
// pipelined row sweep: at row i column j is relaxed at i and column j+1
// at i−1, so one pass streams four columns while updating two (half the
// memory traffic of two single-column sweeps) and the two Gauss–Seidel
// recurrences overlap instead of serializing on one dependence chain.
//
// Every value each update reads is the same one the sequential order
// (all of column j, then all of column j+1) reads: j+1's left neighbour
// at row i−1 was written at step i−1, and j's right neighbour at row i is
// untouched until step i+1. Operand order is preserved, so the sweep is
// bit-identical to relaxColumnRef on j then j+1. Requires n ≥ 4.
func relaxColumnPair(a []float64, n, j int) {
	c0 := a[j*n : (j+1)*n]
	c1 := a[(j+1)*n : (j+2)*n]
	l := a[(j-1)*n : j*n]
	r := a[(j+2)*n : (j+3)*n]
	p0 := c0[0]
	p1 := c1[0]
	v0 := 0.2 * (c0[1] + c0[2] + p0 + c1[1] + l[1])
	c0[1] = v0
	p0 = v0
	for i := 2; i < n-1; i++ {
		v0 = 0.2 * (c0[i] + c0[i+1] + p0 + c1[i] + l[i])
		c0[i] = v0
		p0 = v0
		v1 := 0.2 * (c1[i-1] + c1[i] + p1 + r[i-1] + c0[i-1])
		c1[i-1] = v1
		p1 = v1
	}
	v1 := 0.2 * (c1[n-2] + c1[n-1] + p1 + r[n-2] + c0[n-2])
	c1[n-2] = v1
}

// Untiled runs t sweeps in storage order, two columns per pass where the
// geometry allows; bit-identical to UntiledRef.
func Untiled(a []float64, n, t int) {
	if n < 4 {
		UntiledRef(a, n, t)
		return
	}
	for it := 0; it < t; it++ {
		j := 1
		for ; j+2 <= n-1; j += 2 {
			relaxColumnPair(a, n, j)
		}
		for ; j < n-1; j++ {
			relaxColumn(a, n, j)
		}
	}
}

// UntiledRef is the pre-optimization sweep (one column at a time, no
// carried register), kept as the differential-test oracle and speedup
// baseline.
func UntiledRef(a []float64, n, t int) {
	for it := 0; it < t; it++ {
		for j := 1; j < n-1; j++ {
			relaxColumnRef(a, n, j)
		}
	}
}

// DefaultStrip is the paper's tile size s = 18.
const DefaultStrip = 18

// HandTiled runs t sweeps with time-skewed column-strip tiling: strip k at
// time step τ covers columns [k·s − τ, k·s − τ + s). Updating column j at
// step τ needs column j−1 already at τ (the previous strip covered it) and
// column j+1 still at τ−1 (this strip covered it one step earlier, and no
// later strip has run). Each (column, step) pair is executed exactly once
// and in a dependence-equivalent order, so the result is bit-for-bit equal
// to Untiled.
//
// timeBlock bounds how many time steps one strip advances before moving
// on; the strip working set is (s + timeBlock) columns. Pass 0 for all of
// t (the paper's full-depth tiling).
func HandTiled(a []float64, n, t, s, timeBlock int) {
	if s <= 0 {
		s = DefaultStrip
	}
	if timeBlock <= 0 || timeBlock > t {
		timeBlock = t
	}
	for t0 := 0; t0 < t; t0 += timeBlock {
		tEnd := t0 + timeBlock
		if tEnd > t {
			tEnd = t
		}
		// Strip origins must cover every column at every τ in the block:
		// k·s − τ ranges over [1−s, n−2], relative τ in [1, tEnd−t0].
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
					relaxColumn(a, n, j)
				}
			}
		}
	}
}

// TileParams chooses hand-tiling parameters for an n×n problem, t time
// steps, and an L2 of l2Size bytes: the working set of one strip over one
// time block is (s + timeBlock + 2) columns, which must fit comfortably in
// the cache. Full time depth (timeBlock = t) is preferred — it removes all
// capacity misses, as each column then passes through the cache once —
// shrinking the strip as needed; when even s = 1 cannot cover the full
// depth, time is blocked and the array re-streams once per block.
func TileParams(n, t int, l2Size uint64) (s, timeBlock int) {
	colBytes := uint64(n) * 8
	budget := int(l2Size / colBytes) // columns fitting the L2
	if budget-t-4 >= 1 {
		return budget - t - 4, t
	}
	if budget < 5 {
		return 1, 1
	}
	return 1, budget - 4
}

// SweepDelta returns the mean absolute change one extra sweep makes; tests
// and examples use it as a convergence measure.
func SweepDelta(a []float64, n int) float64 {
	tmp := append([]float64(nil), a...)
	Untiled(tmp, n, 1)
	var sum float64
	for i := range a {
		d := tmp[i] - a[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(a))
}
