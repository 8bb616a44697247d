package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultBlockSize(t *testing.T) {
	cases := []struct {
		cache uint64
		dims  int
		want  uint64
	}{
		{2 << 20, 2, 1 << 20},
		{2 << 20, 3, 512 << 10}, // 2M/3 = 699050 → 512K
		{1 << 20, 2, 512 << 10},
		{0, 0, DefaultBlockSize(DefaultCacheSize, MaxHints)},
		{2, 3, 1}, // cache/dims == 0 clamps to 1
	}
	for _, c := range cases {
		if got := DefaultBlockSize(c.cache, c.dims); got != c.want {
			t.Errorf("DefaultBlockSize(%d,%d) = %d, want %d", c.cache, c.dims, got, c.want)
		}
	}
}

func TestTourOrderString(t *testing.T) {
	if TourAllocation.String() != "allocation" || TourMorton.String() != "morton" ||
		TourHilbert.String() != "hilbert" {
		t.Error("tour order names wrong")
	}
	if TourOrder(42).String() != "TourOrder(42)" {
		t.Error("unknown tour order name wrong")
	}
}

func TestForkRunRunsEveryThreadOnce(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20})
	const n = 1000
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		s.Fork(func(a1, _ int) { counts[a1]++ }, i, 0,
			uint64(i*64), uint64((n-i)*64), 0)
	}
	if s.Pending() != n {
		t.Fatalf("Pending = %d, want %d", s.Pending(), n)
	}
	s.Run(false)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("thread %d ran %d times", i, c)
		}
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after run = %d", s.Pending())
	}
}

func TestRunPassesArguments(t *testing.T) {
	s := New(Config{})
	var got1, got2 int
	s.Fork(func(a1, a2 int) { got1, got2 = a1, a2 }, 41, 42, 0, 0, 0)
	s.Run(false)
	if got1 != 41 || got2 != 42 {
		t.Fatalf("args = (%d,%d), want (41,42)", got1, got2)
	}
}

func TestSameBlockSameBin(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 19})
	// Two threads whose hints fall in the same block must share a bin.
	s.Fork(func(int, int) {}, 0, 0, 100, 200, 0)
	s.Fork(func(int, int) {}, 0, 0, 150, 250, 0)
	if got := s.Stats().BinsUsed; got != 1 {
		t.Fatalf("BinsUsed = %d, want 1", got)
	}
	// A thread one block away must get a new bin.
	s.Fork(func(int, int) {}, 0, 0, 100+1<<19, 200, 0)
	if got := s.Stats().BinsUsed; got != 2 {
		t.Fatalf("BinsUsed = %d, want 2", got)
	}
}

func TestBinExecutionIsClustered(t *testing.T) {
	// All threads of one bin must run contiguously: record the bin id of
	// each execution and check no bin id reappears after a different one.
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 18})
	var order []int
	const blocks = 8
	const perBlock = 20
	// Fork in round-robin order across blocks — worst case for a FIFO
	// scheduler, trivial for a binning one.
	for j := 0; j < perBlock; j++ {
		for b := 0; b < blocks; b++ {
			b := b
			s.Fork(func(int, int) { order = append(order, b) }, 0, 0,
				uint64(b)<<18, 0, 0)
		}
	}
	s.Run(false)
	seen := make(map[int]bool)
	last := -1
	for _, b := range order {
		if b != last {
			if seen[b] {
				t.Fatalf("bin %d resumed after interruption: order %v", b, order)
			}
			seen[b] = true
			last = b
		}
	}
	if len(seen) != blocks {
		t.Fatalf("saw %d bins, want %d", len(seen), blocks)
	}
}

func TestSymmetricFolding(t *testing.T) {
	fold := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 18, FoldSymmetric: true})
	fold.Fork(func(int, int) {}, 0, 0, 1<<18, 3<<18, 0)
	fold.Fork(func(int, int) {}, 0, 0, 3<<18, 1<<18, 0)
	if got := fold.Stats().BinsUsed; got != 1 {
		t.Errorf("folded BinsUsed = %d, want 1", got)
	}
	plain := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 18})
	plain.Fork(func(int, int) {}, 0, 0, 1<<18, 3<<18, 0)
	plain.Fork(func(int, int) {}, 0, 0, 3<<18, 1<<18, 0)
	if got := plain.Stats().BinsUsed; got != 2 {
		t.Errorf("unfolded BinsUsed = %d, want 2", got)
	}
}

func TestKeepReRuns(t *testing.T) {
	s := New(Config{})
	runs := 0
	s.Fork(func(int, int) { runs++ }, 0, 0, 0, 0, 0)
	s.Run(true)
	s.Run(true)
	s.Run(false)
	if runs != 3 {
		t.Fatalf("thread ran %d times under keep, want 3", runs)
	}
	s.Run(false) // nothing scheduled; must be a no-op
	if runs != 3 {
		t.Fatalf("destroyed threads re-ran")
	}
	st := s.Stats()
	if st.TotalForked != 1 || st.TotalRun != 3 || st.Runs != 4 {
		t.Errorf("stats = %+v", st)
	}
	s.Init(0, 0) // must preserve the lifetime counters
	if st := s.Stats(); st.TotalForked != 1 || st.TotalRun != 3 {
		t.Errorf("stats after Init = %+v", st)
	}
}

func TestForkAfterRunReusesFreeLists(t *testing.T) {
	s := New(Config{})
	total := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i++ {
			s.Fork(func(int, int) { total++ }, 0, 0, uint64(i)*1024, 0, 0)
		}
		s.Run(false)
	}
	if total != 1500 {
		t.Fatalf("ran %d threads, want 1500", total)
	}
}

func TestInitReconfigures(t *testing.T) {
	s := New(Config{CacheSize: 2 << 20})
	s.Init(1<<16, 8)
	if s.BlockSize() != 1<<16 {
		t.Errorf("BlockSize = %d, want %d", s.BlockSize(), 1<<16)
	}
	if s.HashDim() != 8 {
		t.Errorf("HashDim = %d, want 8", s.HashDim())
	}
	// Non-power-of-two values round down to powers of two.
	s.Init(3000, 10)
	if s.BlockSize() != 2048 {
		t.Errorf("BlockSize = %d, want 2048", s.BlockSize())
	}
	if s.HashDim() != 8 {
		t.Errorf("HashDim = %d, want 8", s.HashDim())
	}
	// Zeros restore defaults (th_init semantics).
	s.Init(0, 0)
	if s.BlockSize() != DefaultBlockSize(2<<20, MaxHints) {
		t.Errorf("default BlockSize = %d", s.BlockSize())
	}
	if s.HashDim() != DefaultHashDim {
		t.Errorf("default HashDim = %d", s.HashDim())
	}
}

func TestHashCollisionsChainCorrectly(t *testing.T) {
	// A tiny 2×2×2 hash table forces heavy chaining; distinct blocks must
	// still get distinct bins and all threads must run.
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 10, HashDim: 2})
	ran := 0
	const blocks = 64
	for b := 0; b < blocks; b++ {
		s.Fork(func(int, int) { ran++ }, 0, 0, uint64(b)<<10, 0, 0)
	}
	if got := s.Stats().BinsUsed; got != blocks {
		t.Fatalf("BinsUsed = %d, want %d (distinct blocks)", got, blocks)
	}
	s.Run(false)
	if ran != blocks {
		t.Fatalf("ran %d, want %d", ran, blocks)
	}
}

func TestWorkersRunAllThreads(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 14, Workers: 4})
	var mu sync.Mutex
	ran := make(map[int]int)
	const n = 2000
	for i := 0; i < n; i++ {
		s.Fork(func(a1, _ int) {
			mu.Lock()
			ran[a1]++
			mu.Unlock()
		}, i, 0, uint64(i*64), 0, 0)
	}
	s.Run(false)
	if len(ran) != n {
		t.Fatalf("ran %d distinct threads, want %d", len(ran), n)
	}
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("thread %d ran %d times", i, c)
		}
	}
}

func TestTourOrdersRunAllThreads(t *testing.T) {
	for _, tour := range []TourOrder{TourAllocation, TourMorton, TourHilbert} {
		s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Tour: tour})
		ran := 0
		rng := rand.New(rand.NewSource(1))
		const n = 500
		for i := 0; i < n; i++ {
			s.Fork(func(int, int) { ran++ }, 0, 0,
				rng.Uint64()%(1<<20), rng.Uint64()%(1<<20), rng.Uint64()%(1<<20))
		}
		s.Run(false)
		if ran != n {
			t.Errorf("tour %v: ran %d, want %d", tour, ran, n)
		}
	}
}

func TestMortonTourSortsByZOrder(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 10, Tour: TourMorton})
	var visited []uint64
	// Fork in reverse block order; Morton order on (b,0,0) is ascending b.
	for b := 7; b >= 0; b-- {
		b := b
		s.Fork(func(int, int) { visited = append(visited, uint64(b)) }, 0, 0,
			uint64(b)<<10, 0, 0)
	}
	s.Run(false)
	for i := 1; i < len(visited); i++ {
		if visited[i] < visited[i-1] {
			t.Fatalf("morton tour out of order: %v", visited)
		}
	}
}

// Property: every forked thread runs exactly once, for arbitrary hints,
// block sizes, hash sizes and tours.
func TestEveryThreadRunsOnceProperty(t *testing.T) {
	f := func(seed int64, blockSel, hashSel, tourSel uint8, fold bool) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(Config{
			CacheSize:     1 << 20,
			BlockSize:     1 << (10 + blockSel%12),
			HashDim:       1 << (hashSel % 5),
			Tour:          TourOrder(tourSel % 3),
			FoldSymmetric: fold,
		})
		n := rng.Intn(400) + 1
		counts := make([]int, n)
		for i := 0; i < n; i++ {
			s.Fork(func(a1, _ int) { counts[a1]++ }, i, 0,
				rng.Uint64(), rng.Uint64(), rng.Uint64())
		}
		s.Run(false)
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: folding is exactly permutation-invariance — two threads with
// permuted hints always share a bin when folding is on.
func TestFoldingPermutationProperty(t *testing.T) {
	f := func(h1, h2, h3 uint64, perm uint8) bool {
		s := New(Config{CacheSize: 1 << 20, FoldSymmetric: true})
		hs := [3]uint64{h1, h2, h3}
		p := permute3(hs, int(perm%6))
		s.Fork(func(int, int) {}, 0, 0, hs[0], hs[1], hs[2])
		s.Fork(func(int, int) {}, 0, 0, p[0], p[1], p[2])
		return s.Stats().BinsUsed == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func permute3(v [3]uint64, p int) [3]uint64 {
	perms := [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	idx := perms[p]
	return [3]uint64{v[idx[0]], v[idx[1]], v[idx[2]]}
}

func TestStatsOccupancy(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 18})
	for i := 0; i < 10; i++ {
		s.Fork(func(int, int) {}, 0, 0, 0, 0, 0) // bin A: 10 threads
	}
	s.Fork(func(int, int) {}, 0, 0, 1<<18, 0, 0) // bin B: 1 thread
	st := s.Stats()
	if st.BinsUsed != 2 || st.Pending != 11 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MinPerBin != 1 || st.MaxPerBin != 10 {
		t.Errorf("min/max = %d/%d, want 1/10", st.MinPerBin, st.MaxPerBin)
	}
	if st.AvgPerBin != 5.5 {
		t.Errorf("avg = %v, want 5.5", st.AvgPerBin)
	}
	occ := s.BinOccupancy()
	if len(occ) != 2 || occ[0] != 10 || occ[1] != 1 {
		t.Errorf("occupancy = %v", occ)
	}
}

func TestMatmulBinCountMatchesPaperGeometry(t *testing.T) {
	// §4.2: n=1024 matmul on the R8000 (2MB L2, block = C/2 = 1MB)
	// produced 1,048,576 threads in 81 bins. Rows of A and B are 8KB, so
	// 1024 rows span 8MB: ⌈8MB/1MB⌉ = 9 blocks per dimension when the
	// two matrices are offset within blocks — 9×9 = 81 bins.
	s := New(Config{CacheSize: 2 << 20, BlockSize: 1 << 20})
	const n = 1024
	rowBytes := uint64(n * 8)
	aBase := uint64(0x1000_0000) + 512<<10 // mid-block start, as with malloc'd data
	bBase := aBase + n*rowBytes
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Fork(func(int, int) {}, i, j,
				aBase+uint64(i)*rowBytes, bBase+uint64(j)*rowBytes, 0)
		}
	}
	st := s.Stats()
	if st.Pending != n*n {
		t.Fatalf("pending = %d", st.Pending)
	}
	if st.BinsUsed != 81 {
		t.Errorf("BinsUsed = %d, want 81 (paper §4.2)", st.BinsUsed)
	}
}
