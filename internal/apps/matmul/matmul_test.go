package matmul

import (
	"math"
	"testing"

	"threadsched/internal/cache"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

const testN = 48

func newInputs(n int) (A, B, C, want []float64) {
	A = make([]float64, n*n)
	B = make([]float64, n*n)
	C = make([]float64, n*n)
	want = make([]float64, n*n)
	Fill(A, n, 1.0)
	Fill(B, n, 2.0)
	Reference(want, A, B, n)
	return
}

func maxRelErr(got, want []float64) float64 {
	var worst float64
	for i := range got {
		denom := math.Abs(want[i])
		if denom < 1 {
			denom = 1
		}
		if e := math.Abs(got[i]-want[i]) / denom; e > worst {
			worst = e
		}
	}
	return worst
}

func TestNativeVariantsMatchReference(t *testing.T) {
	variants := map[string]func(C, A, B []float64, n int){
		"interchanged": Interchanged,
		"transposed":   Transposed,
		"tiledInter":   func(C, A, B []float64, n int) { TiledInterchanged(C, A, B, n, 16) },
		"tiledTrans":   func(C, A, B []float64, n int) { TiledTransposed(C, A, B, n, 16) },
		"threaded": func(C, A, B []float64, n int) {
			Threaded(C, A, B, n, ThreadedScheduler(1<<16))
		},
	}
	for name, fn := range variants {
		A, B, C, want := newInputs(testN)
		fn(C, A, B, testN)
		if err := maxRelErr(C, want); err > 1e-12 {
			t.Errorf("%s: max relative error %g", name, err)
		}
	}
}

func TestNativeVariantsOddSizes(t *testing.T) {
	// Sizes not divisible by tile or register block exercise remainders.
	for _, n := range []int{1, 2, 3, 5, 17, 31} {
		A, B, C, want := newInputs(n)
		TiledTransposed(C, A, B, n, 7)
		if err := maxRelErr(C, want); err > 1e-12 {
			t.Errorf("n=%d tiledTrans: err %g", n, err)
		}
		TiledInterchanged(C, A, B, n, 7)
		if err := maxRelErr(C, want); err > 1e-12 {
			t.Errorf("n=%d tiledInter: err %g", n, err)
		}
	}
}

func TestTransposeRestoresA(t *testing.T) {
	n := 13
	A := make([]float64, n*n)
	Fill(A, n, 3.0)
	orig := append([]float64(nil), A...)
	B := make([]float64, n*n)
	C := make([]float64, n*n)
	Fill(B, n, 1.5)
	Transposed(C, A, B, n)
	for i := range A {
		if A[i] != orig[i] {
			t.Fatalf("A[%d] changed: %v -> %v", i, orig[i], A[i])
		}
	}
	Threaded(C, A, B, n, ThreadedScheduler(1<<16))
	for i := range A {
		if A[i] != orig[i] {
			t.Fatalf("threaded changed A[%d]", i)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	n := 9
	m := make([]float64, n*n)
	Fill(m, n, 0.25)
	orig := append([]float64(nil), m...)
	Transpose(m, n)
	if m[Idx(n, 2, 5)] != orig[Idx(n, 5, 2)] {
		t.Fatal("transpose did not swap (2,5)")
	}
	Transpose(m, n)
	for i := range m {
		if m[i] != orig[i] {
			t.Fatal("double transpose is not the identity")
		}
	}
}

func TestThreadedBinGeometry(t *testing.T) {
	// With block size = C/2 and both matrices spanning 4 blocks per
	// dimension, threads must land in ~(4..5)² bins, uniformly.
	n := 64
	cacheSize := uint64(n * n * 8 / 2) // each matrix = 2 cache sizes = 4 blocks
	s := ThreadedScheduler(cacheSize)
	A, B, C, _ := newInputs(n)
	Threaded(C, A, B, n, s)
	st := s.Stats()
	if st.TotalForked != uint64(n*n) {
		t.Fatalf("forked %d threads, want %d", st.TotalForked, n*n)
	}
	if st.TotalRun != st.TotalForked {
		t.Fatalf("ran %d of %d threads", st.TotalRun, st.TotalForked)
	}
}

func TestTracedVariantsMatchReference(t *testing.T) {
	_, _, _, want := newInputs(testN)
	mk := func() *Traced {
		cpu := sim.NewCPU(trace.Discard)
		return NewTraced(cpu, vm.NewAddressSpace(), testN)
	}
	check := func(name string, tr *Traced) {
		t.Helper()
		if err := maxRelErr(tr.C.Data(), want); err > 1e-12 {
			t.Errorf("%s: max relative error %g", name, err)
		}
		if tr.CPU.Instructions == 0 {
			t.Errorf("%s: no instructions recorded", name)
		}
	}

	tr := mk()
	tr.Interchanged()
	check("interchanged", tr)

	tr = mk()
	tr.Transposed()
	check("transposed", tr)

	tr = mk()
	tr.TiledInterchanged(16)
	check("tiledInter", tr)

	tr = mk()
	tr.TiledTransposed(16)
	check("tiledTrans", tr)

	cpu := sim.NewCPU(trace.Discard)
	as := vm.NewAddressSpace()
	tr = NewTraced(cpu, as, testN)
	th := sim.NewThreads(cpu, as, ThreadedScheduler(1<<16))
	tr.Threaded(th)
	check("threaded", tr)
}

func TestTracedTransposedRestoresA(t *testing.T) {
	cpu := sim.NewCPU(trace.Discard)
	tr := NewTraced(cpu, vm.NewAddressSpace(), 12)
	orig := append([]float64(nil), tr.A.Data()...)
	tr.Transposed()
	for i, v := range tr.A.Data() {
		if v != orig[i] {
			t.Fatalf("A[%d] changed", i)
		}
	}
}

func TestTracedInterchangedReferenceCounts(t *testing.T) {
	n := 16
	var counts trace.Counts
	cpu := sim.NewCPU(&counts)
	tr := NewTraced(cpu, vm.NewAddressSpace(), n)
	tr.Interchanged()
	n3 := uint64(n * n * n)
	n2 := uint64(n * n)
	// Inner loop: 2 loads + 1 store per multiply-add; plus the zeroing
	// stores and the middle-loop B loads.
	wantLoads := 2*n3 + n2
	wantStores := n3 + n2
	if counts.Loads() != wantLoads {
		t.Errorf("loads = %d, want %d", counts.Loads(), wantLoads)
	}
	if counts.Stores() != wantStores {
		t.Errorf("stores = %d, want %d", counts.Stores(), wantStores)
	}
	// Instructions: 10 per 2 multiply-adds inner + 4 per middle + 2 per
	// zeroed element.
	wantInstr := 10*n3/2 + 4*n2 + 2*n2
	if cpu.Instructions != wantInstr {
		t.Errorf("instructions = %d, want %d", cpu.Instructions, wantInstr)
	}
}

func TestTracedDotReferenceCounts(t *testing.T) {
	n := 16
	var counts trace.Counts
	cpu := sim.NewCPU(&counts)
	tr := NewTraced(cpu, vm.NewAddressSpace(), n)
	tr.dot(3, 5)
	if got := counts.Loads(); got != uint64(2*n) {
		t.Errorf("dot loads = %d, want %d", got, 2*n)
	}
	if got := counts.Stores(); got != 1 {
		t.Errorf("dot stores = %d, want 1", got)
	}
}

// Shape test for the headline result: at scaled geometry, the threaded
// version must eliminate the bulk of the untiled version's L2 capacity
// misses, and the tiled version must beat both on total references.
func TestThreadedCutsL2CapacityMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled cache simulation")
	}
	n := 96 // 3 matrices × 72 KB each ≫ scaled 32 KB L2
	mach := machine.R8000().Scaled(64)

	run := func(f func(tr *Traced, th *sim.Threads)) cache.Summary {
		h := cache.MustNewHierarchy(mach.Caches, nil)
		cpu := sim.NewCPU(h)
		as := vm.NewAddressSpace()
		tr := NewTraced(cpu, as, n)
		th := sim.NewThreads(cpu, as, ThreadedScheduler(mach.L2CacheSize()))
		f(tr, th)
		return h.Summarize()
	}

	untiled := run(func(tr *Traced, _ *sim.Threads) { tr.Interchanged() })
	threaded := run(func(tr *Traced, th *sim.Threads) { tr.Threaded(th) })
	tiled := run(func(tr *Traced, _ *sim.Threads) {
		tr.TiledInterchanged(TileFor(mach.L2CacheSize()))
	})

	if untiled.L2.Capacity == 0 {
		t.Fatal("untiled run shows no L2 capacity misses; scaling is wrong")
	}
	if threaded.L2.Capacity*5 > untiled.L2.Capacity {
		t.Errorf("threaded L2 capacity misses %d not ≪ untiled %d",
			threaded.L2.Capacity, untiled.L2.Capacity)
	}
	if tiled.L2.Misses*5 > untiled.L2.Misses {
		t.Errorf("tiled L2 misses %d not ≪ untiled %d", tiled.L2.Misses, untiled.L2.Misses)
	}
	// §4.2: the threaded version reduces I and D references vs untiled
	// (transposed inner loop), and tiled reduces them further.
	if threaded.DataRefs >= untiled.DataRefs {
		t.Errorf("threaded data refs %d not < untiled %d", threaded.DataRefs, untiled.DataRefs)
	}
	if tiled.DataRefs >= threaded.DataRefs {
		t.Errorf("tiled data refs %d not < threaded %d", tiled.DataRefs, threaded.DataRefs)
	}
}

func TestThreadedSchedulerConfig(t *testing.T) {
	s := ThreadedScheduler(2 << 20)
	if s.BlockSize() != 1<<20 {
		t.Errorf("block size = %d, want 1M", s.BlockSize())
	}
}

func TestIdx(t *testing.T) {
	if Idx(10, 3, 4) != 43 {
		t.Errorf("Idx(10,3,4) = %d, want 43 (column-major)", Idx(10, 3, 4))
	}
}

func BenchmarkNativeInterchanged(b *testing.B) {
	n := 128
	A, B2, C, _ := newInputs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Interchanged(C, A, B2, n)
	}
}

func BenchmarkNativeThreaded(b *testing.B) {
	n := 128
	A, B2, C, _ := newInputs(n)
	s := ThreadedScheduler(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Threaded(C, A, B2, n, s)
	}
}

// TestTracedThreadedForkAllocs: the traced threaded variants share one
// body closure across all their threads, so a warmed run allocates at
// most one object per forked thread (sim.Threads.Fork's own wrapper),
// plus a few per call that do not grow with the thread count.
func TestTracedThreadedForkAllocs(t *testing.T) {
	const perCall = 8
	variants := map[string]func(tr *Traced, th *sim.Threads){
		"Threaded":     func(tr *Traced, th *sim.Threads) { tr.Threaded(th) },
		"ThreadedEach": func(tr *Traced, th *sim.Threads) { tr.ThreadedEach(th, nil) },
	}
	for name, run := range variants {
		for _, n := range []int{32, 64} {
			cpu := sim.NewCPU(trace.Discard).Buffer(0)
			as := vm.NewAddressSpace()
			tr := NewTraced(cpu, as, n)
			th := sim.NewThreads(cpu, as, ThreadedScheduler(1<<16))
			allocs := testing.AllocsPerRun(2, func() { run(tr, th) })
			if threads := float64(n * n); allocs > threads+perCall {
				t.Errorf("%s n=%d: %v allocations for %v forked threads, want at most one each plus %d",
					name, n, allocs, threads, perCall)
			}
		}
	}
}
