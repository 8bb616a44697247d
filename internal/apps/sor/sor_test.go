package sor

import (
	"math"
	"runtime"
	"testing"

	"threadsched/internal/cache"
	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

func TestHandTiledMatchesUntiledExactly(t *testing.T) {
	for _, n := range []int{5, 17, 40, 101} {
		for _, iters := range []int{1, 3, 7} {
			for _, s := range []int{1, 3, 18} {
				for _, tb := range []int{0, 2, 5} {
					a := NewArray(n)
					b := append([]float64(nil), a...)
					Untiled(a, n, iters)
					HandTiled(b, n, iters, s, tb)
					for k := range a {
						if a[k] != b[k] {
							t.Fatalf("n=%d t=%d s=%d tb=%d: a[%d] = %v, tiled %v",
								n, iters, s, tb, k, a[k], b[k])
						}
					}
				}
			}
		}
	}
}

func TestThreadedConvergesLikeUntiled(t *testing.T) {
	// Asynchronous relaxation: the threaded update order differs across
	// bin boundaries, so results are not bitwise comparable to Untiled.
	// The contract is convergence: after t sweeps in either order the
	// iterate must be much closer to the fixed point than the initial
	// state, and nearly stationary.
	n, iters := 101, 30
	fixed := NewArray(n)
	Untiled(fixed, n, 5000) // high-accuracy fixed point

	dist := func(x []float64) float64 {
		var worst float64
		for k := range x {
			if d := math.Abs(x[k] - fixed[k]); d > worst {
				worst = d
			}
		}
		return worst
	}

	init := NewArray(n)
	initErr := dist(init)

	u := NewArray(n)
	Untiled(u, n, iters)
	b := NewArray(n)
	Threaded(b, n, iters, ThreadedScheduler(1<<15))

	// The paper runs a fixed 30 sweeps and relies on the asynchronous
	// iteration converging; it trades convergence rate for locality, so
	// we assert progress toward the fixed point, not parity with the
	// untiled order.
	if eu := dist(u); eu > initErr/8 {
		t.Fatalf("untiled barely converged (%v of %v); test is miscalibrated", eu, initErr)
	}
	if e := dist(b); e > initErr/2 {
		t.Fatalf("threaded error %v did not shrink from initial %v", e, initErr)
	}
	// The averaging stencil is a contraction: the reordered schedule must
	// not amplify the iterate.
	var maxInit, maxB float64
	for k, v := range NewArray(n) {
		if math.Abs(v) > maxInit {
			maxInit = math.Abs(v)
		}
		if math.Abs(b[k]) > maxB {
			maxB = math.Abs(b[k])
		}
	}
	if maxB > maxInit {
		t.Fatalf("threaded iterate grew: %v > initial %v", maxB, maxInit)
	}
}

func TestThreadedExactMatchesUntiledBitwise(t *testing.T) {
	for _, n := range []int{8, 33, 101} {
		for _, iters := range []int{1, 4, 9} {
			a := NewArray(n)
			b := append([]float64(nil), a...)
			Untiled(a, n, iters)
			sched := core.NewDep(core.Config{CacheSize: 1 << 15, BlockSize: 1 << 14})
			if err := ThreadedExact(b, n, iters, sched); err != nil {
				t.Fatalf("n=%d t=%d: %v", n, iters, err)
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("n=%d t=%d: a[%d] = %v, exact-threaded %v",
						n, iters, k, a[k], b[k])
				}
			}
		}
	}
}

func TestTileParamsBranches(t *testing.T) {
	// Full-depth branch: plenty of budget.
	s, tb := TileParams(100, 10, 1<<20) // budget = 1310 columns
	if tb != 10 || s < 1 {
		t.Fatalf("full-depth params = (%d,%d)", s, tb)
	}
	// Blocked-time branch: budget too small for full depth.
	s, tb = TileParams(251, 10, 32<<10) // budget = 16 columns
	if s != 2 || tb != 10 {
		// budget-t-4 = 2 ≥ 1, so this is actually full depth with s=2.
		t.Fatalf("params = (%d,%d), want (2,10)", s, tb)
	}
	s, tb = TileParams(1000, 30, 32<<10) // budget = 4 columns < t
	if s != 1 || tb != 1 {
		t.Fatalf("tiny-budget params = (%d,%d), want (1,1)", s, tb)
	}
	s, tb = TileParams(500, 30, 64<<10) // budget = 16, not enough for t=30
	if s != 1 || tb != 12 {
		t.Fatalf("blocked-time params = (%d,%d), want (1,12)", s, tb)
	}
	// Whatever the parameters, correctness must hold.
	n, iters := 64, 7
	a := NewArray(n)
	b := append([]float64(nil), a...)
	Untiled(a, n, iters)
	s, tb = TileParams(n, iters, 8<<10)
	HandTiled(b, n, iters, s, tb)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("TileParams-driven tiling diverged at %d", k)
		}
	}
}

func TestThreadedThreadCount(t *testing.T) {
	n, iters := 51, 4
	s := ThreadedScheduler(1 << 15)
	a := NewArray(n)
	Threaded(a, n, iters, s)
	st := s.Stats()
	want := uint64(iters * (n - 2))
	if st.TotalForked != want {
		t.Fatalf("forked %d threads, want %d (t·(n−2))", st.TotalForked, want)
	}
	if st.TotalRun != want {
		t.Fatalf("ran %d threads, want %d", st.TotalRun, want)
	}
}

func TestBoundaryRowsColumnsUntouched(t *testing.T) {
	n := 21
	a := NewArray(n)
	orig := append([]float64(nil), a...)
	Untiled(a, n, 3)
	for i := 0; i < n; i++ {
		for _, k := range []int{i, (n-1)*n + i, i * n, i*n + n - 1} {
			if a[k] != orig[k] {
				t.Fatalf("boundary element %d changed", k)
			}
		}
	}
}

func TestSweepDeltaDecreases(t *testing.T) {
	n := 41
	a := NewArray(n)
	d0 := SweepDelta(a, n)
	Untiled(a, n, 20)
	d1 := SweepDelta(a, n)
	if d1 >= d0 {
		t.Fatalf("sweep delta did not decrease: %v -> %v", d0, d1)
	}
}

func TestTracedUntiledMatchesNative(t *testing.T) {
	n, iters := 33, 4
	want := NewArray(n)
	Untiled(want, n, iters)
	cpu := sim.NewCPU(trace.Discard)
	tr := NewTracedArray(cpu, vm.NewAddressSpace(), n)
	tr.Untiled(iters)
	for k, v := range tr.A.Data() {
		if v != want[k] {
			t.Fatalf("traced[%d] = %v, want %v", k, v, want[k])
		}
	}
}

// NewTracedArray fills its simulated array in place: it allocates one n×n
// array, not a second one to copy the initial state from.
func TestNewTracedArrayAllocatesOneArray(t *testing.T) {
	const n = 256
	array := uint64(n * n * sim.WordSize)
	cpu := sim.NewCPU(trace.Discard)
	as := vm.NewAddressSpace()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewTracedArray(cpu, as, n)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= array*3/2 {
		t.Errorf("NewTracedArray(%d) allocated %d bytes, want one %d-byte array", n, got, array)
	}
	want := NewArray(n)
	for k, v := range tr.A.Data() {
		if v != want[k] {
			t.Fatalf("traced initial[%d] = %v, want %v", k, v, want[k])
		}
	}
}

func TestTracedHandTiledMatchesNative(t *testing.T) {
	n, iters := 33, 5
	want := NewArray(n)
	Untiled(want, n, iters)
	cpu := sim.NewCPU(trace.Discard)
	tr := NewTracedArray(cpu, vm.NewAddressSpace(), n)
	tr.HandTiled(iters, 6, 0)
	for k, v := range tr.A.Data() {
		if v != want[k] {
			t.Fatalf("traced tiled[%d] = %v, want %v", k, v, want[k])
		}
	}
}

func TestTracedThreadedMatchesNativeThreaded(t *testing.T) {
	// The traced and native threaded variants use the same relative
	// layout and scheduler configuration, so their (reordered) results
	// must agree exactly with each other.
	n, iters := 33, 4
	l2 := uint64(1 << 14)
	want := NewArray(n)
	Threaded(want, n, iters, ThreadedScheduler(l2))

	cpu := sim.NewCPU(trace.Discard)
	as := vm.NewAddressSpaceAt(0x1000_0000) // same base as the native hints
	tr := NewTracedArray(cpu, as, n)
	th := sim.NewThreads(cpu, as, ThreadedScheduler(l2))
	tr.Threaded(iters, th)
	for k, v := range tr.A.Data() {
		if v != want[k] {
			t.Fatalf("traced threaded[%d] = %v, native %v", k, v, want[k])
		}
	}
}

func TestTracedReferenceShape(t *testing.T) {
	n, iters := 17, 3
	var counts trace.Counts
	cpu := sim.NewCPU(&counts)
	tr := NewTracedArray(cpu, vm.NewAddressSpace(), n)
	tr.Untiled(iters)
	points := uint64(iters * (n - 2) * (n - 2))
	cols := uint64(iters * (n - 2))
	if got := counts.Stores(); got != points {
		t.Errorf("stores = %d, want %d", got, points)
	}
	if got := counts.Loads(); got != 4*points+cols {
		t.Errorf("loads = %d, want %d", got, 4*points+cols)
	}
	if cpu.Instructions != pointInstr*points+colInstr*cols {
		t.Errorf("instructions = %d, want %d", cpu.Instructions,
			pointInstr*points+colInstr*cols)
	}
}

// Shape test for Table 7: hand-tiled and threaded must remove almost all
// of the untiled version's L2 capacity misses.
func TestTilingAndThreadingRemoveCapacityMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled cache simulation")
	}
	// Array 16× the scaled 32 KB L2, as in the paper (32 MB vs 2 MB).
	n, iters := 251, 10
	mach := machine.R8000().Scaled(64)

	run := func(f func(tr *TracedArray, th *sim.Threads)) cache.Summary {
		h := cache.MustNewHierarchy(mach.Caches, nil)
		cpu := sim.NewCPU(h)
		as := vm.NewAddressSpace()
		tr := NewTracedArray(cpu, as, n)
		th := sim.NewThreads(cpu, as, ThreadedScheduler(mach.L2CacheSize()))
		f(tr, th)
		return h.Summarize()
	}

	untiled := run(func(tr *TracedArray, _ *sim.Threads) { tr.Untiled(iters) })
	s, tb := TileParams(n, iters, mach.L2CacheSize())
	tiled := run(func(tr *TracedArray, _ *sim.Threads) { tr.HandTiled(iters, s, tb) })
	threaded := run(func(tr *TracedArray, th *sim.Threads) { tr.Threaded(iters, th) })

	if untiled.L2.Capacity == 0 {
		t.Fatal("untiled run shows no capacity misses; scaling is wrong")
	}
	// Paper Table 7: hand-tiled and threaded both remove essentially all
	// capacity misses (7,294K → 0 and → 6K).
	if tiled.L2.Capacity*10 > untiled.L2.Capacity {
		t.Errorf("hand-tiled capacity misses %d not ≪ untiled %d",
			tiled.L2.Capacity, untiled.L2.Capacity)
	}
	if threaded.L2.Capacity*10 > untiled.L2.Capacity {
		t.Errorf("threaded capacity misses %d not ≪ untiled %d",
			threaded.L2.Capacity, untiled.L2.Capacity)
	}
	if threaded.L2.Misses*5 > untiled.L2.Misses {
		t.Errorf("threaded L2 misses %d not ≪ untiled %d",
			threaded.L2.Misses, untiled.L2.Misses)
	}
}

func BenchmarkNativeUntiled(b *testing.B) {
	n := 251
	a := NewArray(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Untiled(a, n, 5)
	}
}

func BenchmarkNativeThreaded(b *testing.B) {
	n := 251
	a := NewArray(n)
	s := ThreadedScheduler(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Threaded(a, n, 5, s)
	}
}
