package core

import (
	"math"
	"runtime"
	"testing"
)

// sparseHint spreads thread j over its own 4 KiB block in three
// dimensions, 32×32×16 blocks for 16,384 threads, so every cell of the
// default 16³ hash table chains four bins.
func sparseHint(j int) (uint64, uint64, uint64) {
	return uint64(j%32) << 12, uint64(j/32%32) << 12, uint64(j/1024) << 12
}

// allocated reports the bytes f allocates on the heap. A GC after f
// flushes the per-P allocation caches, which count a cached span's free
// slots as allocated until then.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A small block makes many one-thread bins (Figure 4's C/32 matmul forks
// 16,384 of them); each must pay for one first-size group, not a
// GroupSize one (6 KiB a bin, 103.5 MB in all).
func TestSparseBinsForkMemory(t *testing.T) {
	const bins = 1 << 14
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12})
	null := func(int, int) {}
	got := allocated(func() {
		for j := 0; j < bins; j++ {
			h1, h2, h3 := sparseHint(j)
			s.Fork(null, j, 0, h1, h2, h3)
		}
	})
	if st := s.Stats(); st.BinsUsed != bins || st.MaxPerBin != 1 {
		t.Fatalf("stats = %+v, want %d one-thread bins", st, bins)
	}
	if got > 16<<20 {
		t.Fatalf("forking %d one-thread bins allocated %.1f MB, want ≤ 16 MB", bins, float64(got)/(1<<20))
	}
	if bound := ForkBytes(bins, bins); got > bound+measureSlack {
		t.Fatalf("forking %d one-thread bins allocated %d bytes, above ForkBytes %d", bins, got, bound)
	}
}

// A dense bin grows its groups geometrically and ends in full GroupSize
// groups: one group of each smaller size class, first to last, then
// full-size ones, with the last group the only one not full.
func TestDenseBinGroupClasses(t *testing.T) {
	for _, gs := range []int{DefaultGroupSize, 100, 8} {
		s := New(Config{CacheSize: 1 << 20, GroupSize: gs})
		const threads = 10000
		for j := 0; j < threads; j++ {
			s.Fork(func(int, int) {}, j, 0, 0, 0, 0)
		}
		caps := s.groupCaps(0, 0, 0)
		var want []int
		total := 0
		for size := min(FirstGroupSize, gs); total < threads; size = min(2*size, gs) {
			want = append(want, size)
			total += size
		}
		if len(caps) != len(want) {
			t.Fatalf("GroupSize %d: group capacities %v, want %v", gs, caps, want)
		}
		for i := range want {
			if caps[i] != want[i] {
				t.Fatalf("GroupSize %d: group capacities %v, want %v", gs, caps, want)
			}
		}
		if caps[len(caps)-1] != gs {
			t.Fatalf("GroupSize %d: dense bin ends in a %d-record group", gs, caps[len(caps)-1])
		}
	}
}

// measureSlack absorbs the few hundred bytes the runtime itself
// allocates around a measurement.
const measureSlack = 4 << 10

// ForkBytes bounds what forking actually allocates, for sparse, middling
// and dense bins alike, with the tour a Run builds included.
func TestForkBytesBoundsForkAllocation(t *testing.T) {
	for _, c := range []struct{ threads, bins int }{
		{4096, 4096}, // one thread a bin: the bound is exact but for the table
		{17 * 512, 512},
		{49 * 64, 64},
		{10000, 1},
		{1 << 16, 4096},
	} {
		// The smaller of two measurements on fresh schedulers: the
		// process's first runtime.GC starts the collector's mark-worker
		// goroutines and can start an OS thread, several KB the runtime
		// allocates in whichever window it lands in.
		got := uint64(math.MaxUint64)
		for range 2 {
			s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12})
			null := func(int, int) {}
			got = min(got, allocated(func() {
				for j := 0; j < c.threads; j++ {
					h1, h2, h3 := sparseHint(j % c.bins)
					s.Fork(null, j, 0, h1, h2, h3)
				}
				s.tour()
			}))
			if st := s.Stats(); st.BinsUsed != c.bins || st.Pending != c.threads {
				t.Fatalf("stats = %+v, want %d threads in %d bins", st, c.threads, c.bins)
			}
		}
		if bound := ForkBytes(c.threads, c.bins); got > bound+measureSlack {
			t.Errorf("%d threads in %d bins allocated %d bytes, above ForkBytes %d",
				c.threads, c.bins, got, bound)
		}
	}
}

// Runs that alternate sparse and dense bins on one scheduler draw every
// group from its size class's free list once both shapes have run: the
// warm-up allocates no more than the two shapes need, and the cycles
// after it allocate no group and no bin.
func TestAlternatingSparseDenseAllocationFree(t *testing.T) {
	const (
		sparseBins   = 4096
		denseBins    = 4
		denseThreads = 3000 // per bin
	)
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12})
	null := func(int, int) {}
	sparse := func() {
		for j := 0; j < sparseBins; j++ {
			h1, h2, h3 := sparseHint(j)
			s.Fork(null, j, 0, h1, h2, h3)
		}
		s.Run(false)
	}
	dense := func() {
		for j := 0; j < denseBins*denseThreads; j++ {
			h1, h2, h3 := sparseHint(j % denseBins)
			s.Fork(null, j, 0, h1, h2, h3)
		}
		s.Run(false)
	}
	warm := allocated(func() { sparse(); dense() })
	if bound := ForkBytes(sparseBins, sparseBins) + ForkBytes(denseBins*denseThreads, denseBins); warm > bound+measureSlack {
		t.Fatalf("warm-up allocated %d bytes, above the %d the two shapes need", warm, bound)
	}
	// A tour slice and a run snapshot per Run are acceptable; groups and
	// bins are not.
	if avg := testing.AllocsPerRun(10, func() { sparse(); dense() }); avg > 4 {
		t.Fatalf("alternating sparse/dense cycle allocates %.1f objects after warm-up", avg)
	}
}
