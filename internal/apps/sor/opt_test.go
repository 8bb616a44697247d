package sor

import "testing"

// TestUntiledMatchesRefBitwise requires the pipelined column-pair sweep
// to be bit-identical to the pre-optimization sweep: the pair kernel
// interleaves two Gauss–Seidel chains without reordering any operand.
func TestUntiledMatchesRefBitwise(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 33, 101} {
		for _, iters := range []int{1, 4, 9} {
			ref := NewArray(n)
			opt := append([]float64(nil), ref...)
			UntiledRef(ref, n, iters)
			Untiled(opt, n, iters)
			for k := range ref {
				if ref[k] != opt[k] {
					t.Fatalf("n=%d t=%d: a[%d] = %v, ref %v",
						n, iters, k, opt[k], ref[k])
				}
			}
		}
	}
}

// TestThreadedExactParallelMatchesUntiled runs the dependence-exact
// variant through the parallel dataflow executor: any schedule
// respecting the (it,j−1) and (it−1,j+1) dependences is bit-for-bit the
// sequential sweep, at any worker count. n=3 and n=4 cover the right
// boundary: with one interior column the (it−1,j) edge of the last
// interior column is the only order between sweeps, and without it a
// parallel run races on column 1.
func TestThreadedExactParallelMatchesUntiled(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		sched := ParallelScheduler(1<<15, w)
		for _, n := range []int{3, 4, 8, 33, 101} {
			for _, iters := range []int{1, 4, 9, 32} {
				a := NewArray(n)
				b := append([]float64(nil), a...)
				Untiled(a, n, iters)
				if err := ThreadedExact(b, n, iters, sched); err != nil {
					t.Fatalf("w=%d n=%d t=%d: %v", w, n, iters, err)
				}
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("w=%d n=%d t=%d: a[%d] = %v, parallel %v",
							w, n, iters, k, a[k], b[k])
					}
				}
			}
		}
		sched.Close()
	}
}
