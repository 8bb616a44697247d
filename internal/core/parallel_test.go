package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file are the package's concurrency contract, written
// to be run under -race (the Makefile's tier-1 gate does so): concurrent
// Fork requires ParallelFork, parallel Run requires Workers > 1, and the
// one overlap no mode permits — Fork during Run — panics deterministically.

// TestConcurrentForkAllThreadsRun forks from many goroutines into
// overlapping hint ranges, with concurrent Stats/Pending readers (allowed
// under ParallelFork), then verifies nothing was lost or duplicated.
func TestConcurrentForkAllThreadsRun(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
	)
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, ParallelFork: true})
	counts := make([]int32, goroutines*perG)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // reader exercising the stripe-locked aggregates
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Pending()
				_ = s.Stats()
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				id := g*perG + j
				// Overlapping blocks across goroutines: stripe contention
				// and shared bins are the point.
				s.Fork(func(a1, _ int) { atomic.AddInt32(&counts[a1], 1) }, id, 0,
					uint64(j%64)<<12, uint64(g)<<12, 0)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if got := s.Pending(); got != goroutines*perG {
		t.Fatalf("Pending = %d, want %d", got, goroutines*perG)
	}
	st := s.Stats()
	if st.TotalForked != goroutines*perG {
		t.Fatalf("TotalForked = %d, want %d", st.TotalForked, goroutines*perG)
	}
	s.Run(false)
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("thread %d ran %d times", id, c)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after run = %d", s.Pending())
	}
}

// TestShardedForkMatchesSerialBinning drives the sharded path from one
// goroutine with the exact fork sequence of the serial path and checks
// the bin structure is identical (the sharding must not change *what* is
// built, only who may build it).
func TestShardedForkMatchesSerialBinning(t *testing.T) {
	fork := func(s *Scheduler) {
		for j := 0; j < 3000; j++ {
			s.Fork(func(int, int) {}, j, 0,
				uint64(j%17)<<14, uint64(j%5)<<14, uint64(j%3)<<14)
		}
	}
	serial := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 14})
	sharded := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 14, ParallelFork: true})
	fork(serial)
	fork(sharded)
	ss, ps := serial.Stats(), sharded.Stats()
	if ss.BinsUsed != ps.BinsUsed || ss.Pending != ps.Pending ||
		ss.MinPerBin != ps.MinPerBin || ss.MaxPerBin != ps.MaxPerBin {
		t.Fatalf("serial stats %+v != sharded stats %+v", ss, ps)
	}
	// Per-bin occupancy must match as a multiset (ready-list order may
	// differ: stripes keep their own allocation-order lists).
	so, po := serial.BinOccupancy(), sharded.BinOccupancy()
	hist := make(map[int]int)
	for _, n := range so {
		hist[n]++
	}
	for _, n := range po {
		hist[n]--
	}
	for n, d := range hist {
		if d != 0 {
			t.Fatalf("occupancy multiset differs at count %d (delta %d)", n, d)
		}
	}
}

// TestParallelRunWorkerCounts runs the segmented dispatcher at worker
// counts {2, 4, NumCPU} and checks every thread runs exactly once.
func TestParallelRunWorkerCounts(t *testing.T) {
	workerCounts := []int{2, 4, runtime.NumCPU()}
	for _, w := range workerCounts {
		s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 13, Workers: w})
		const n = 4000
		counts := make([]int32, n)
		for i := 0; i < n; i++ {
			// Skewed bin sizes: low blocks get the bulk of the
			// threads, exercising weighted partitioning and stealing.
			s.Fork(func(a1, _ int) { atomic.AddInt32(&counts[a1], 1) }, i, 0,
				uint64(i%(8+i%29))<<13, 0, 0)
		}
		s.Run(false)
		s.Close()
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: thread %d ran %d times", w, i, c)
			}
		}
	}
}

// TestSegmentedRunKeepsBinsOnOneWorker has every thread append to its
// bin's slice without synchronization. One bin always executes entirely
// on one worker, so this is race-free — and the race detector, not just
// the count check, enforces it.
func TestSegmentedRunKeepsBinsOnOneWorker(t *testing.T) {
	const bins = 37
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 4})
	perBin := make([][]int, bins)
	total := 0
	for j := 0; j < 50; j++ {
		for b := 0; b < bins; b++ {
			b := b
			s.Fork(func(a1, _ int) { perBin[b] = append(perBin[b], a1) }, j, 0,
				uint64(b)<<12, 0, 0)
			total++
		}
	}
	s.Run(false)
	s.Close()
	got := 0
	for b := range perBin {
		got += len(perBin[b])
		// Within a bin, fork order is preserved (group FIFO on one worker).
		for i := 1; i < len(perBin[b]); i++ {
			if perBin[b][i] < perBin[b][i-1] {
				t.Fatalf("bin %d ran out of fork order: %v", b, perBin[b])
			}
		}
	}
	if got != total {
		t.Fatalf("ran %d threads, want %d", got, total)
	}
}

// TestTreeRunKeepsBinsOnOneWorker is TestSegmentedRunKeepsBinsOnOneWorker
// under steal pressure: eight workers over bins of very uneven size, so
// workers that finish light segments keep stealing from heavy ones.
// Per-bin slices are appended without synchronization, so the race
// detector, not just the count check, enforces that no bin is split.
func TestTreeRunKeepsBinsOnOneWorker(t *testing.T) {
	const bins = 64
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 8})
	perBin := make([][]int, bins)
	total := 0
	for b := 0; b < bins; b++ {
		b := b
		for j := 0; j < 1+(b%7)*15; j++ {
			s.Fork(func(a1, _ int) { perBin[b] = append(perBin[b], a1) }, j, 0,
				uint64(b)<<12, 0, 0)
			total++
		}
	}
	s.Run(false)
	s.Close()
	got := 0
	for b := range perBin {
		got += len(perBin[b])
		for i := 1; i < len(perBin[b]); i++ {
			if perBin[b][i] < perBin[b][i-1] {
				t.Fatalf("bin %d ran out of fork order: %v", b, perBin[b])
			}
		}
	}
	if got != total {
		t.Fatalf("ran %d threads, want %d", got, total)
	}
}

// TestParallelForkThenParallelRun is the full pipeline: concurrent fork
// into a sharded table, then a segmented parallel run, repeated so free
// lists and the worker pool recycle.
func TestParallelForkThenParallelRun(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, ParallelFork: true, Workers: 4})
	defer s.Close()
	for round := 0; round < 3; round++ {
		const goroutines, perG = 4, 1000
		var ran atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := 0; j < perG; j++ {
					s.Fork(func(int, int) { ran.Add(1) }, j, g,
						uint64(j%50)<<12, uint64(g%2)<<12, 0)
				}
			}(g)
		}
		wg.Wait() // forkers must synchronize with Run; see the contract
		s.Run(false)
		if got := ran.Load(); got != goroutines*perG {
			t.Fatalf("round %d: ran %d, want %d", round, got, goroutines*perG)
		}
	}
}

// TestForkDuringRunPanics documents the contract's one hard prohibition:
// Fork must never overlap Run, in any mode — ParallelFork widens Fork
// against Fork, never Fork against Run. The scheduler detects the misuse
// and panics rather than corrupting the bin structures.
func TestForkDuringRunPanics(t *testing.T) {
	for _, parallelFork := range []bool{false, true} {
		s := New(Config{CacheSize: 1 << 20, ParallelFork: parallelFork})
		s.Fork(func(int, int) {
			// A thread body forking into its own scheduler mid-run.
			s.Fork(func(int, int) {}, 0, 0, 0, 0, 0)
		}, 0, 0, 0, 0, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ParallelFork=%v: Fork during Run did not panic", parallelFork)
				}
			}()
			s.Run(false)
		}()
		// The guard must reset even on the panic path: a fresh cycle works.
		ran := false
		s.Init(0, 0)
		s.Fork(func(int, int) { ran = true }, 0, 0, 0, 0, 0)
		s.Run(false)
		if !ran {
			t.Fatalf("ParallelFork=%v: scheduler unusable after recovered misuse", parallelFork)
		}
	}
}

// TestKeepReRunsSharded exercises keep semantics and lifetime counters on
// the sharded path (Init folding stripe counters, release preserving
// them).
func TestKeepReRunsSharded(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 14, ParallelFork: true})
	runs := 0
	s.Fork(func(int, int) { runs++ }, 0, 0, 0, 0, 0)
	s.Run(true)
	s.Run(true)
	s.Run(false)
	if runs != 3 {
		t.Fatalf("thread ran %d times under keep, want 3", runs)
	}
	st := s.Stats()
	if st.TotalForked != 1 || st.TotalRun != 3 || st.Runs != 3 {
		t.Errorf("stats = %+v", st)
	}
	s.Init(0, 0) // must preserve the lifetime fork count
	if got := s.Stats().TotalForked; got != 1 {
		t.Errorf("TotalForked after Init = %d, want 1", got)
	}
}

// TestCloseReleasesAndRecreatesPool checks Close is idempotent and that a
// later parallel Run transparently rebuilds the worker pool.
func TestCloseReleasesAndRecreatesPool(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 4})
	run := func() {
		var n atomic.Int64
		for i := 0; i < 256; i++ {
			s.Fork(func(int, int) { n.Add(1) }, i, 0, uint64(i%16)<<12, 0, 0)
		}
		s.Run(false)
		if n.Load() != 256 {
			t.Fatalf("ran %d threads, want 256", n.Load())
		}
	}
	run()
	s.Close()
	s.Close() // idempotent
	run()     // pool recreated on demand
	s.Close()
}

// TestPersistentPoolReuse verifies that repeated parallel runs do not
// accumulate goroutines: after the first Run, the pool is warm and the
// steady-state goroutine count stays flat.
func TestPersistentPoolReuse(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 4})
	defer s.Close()
	for i := 0; i < 64; i++ {
		s.Fork(func(int, int) {}, i, 0, uint64(i%16)<<12, 0, 0)
	}
	s.Run(true) // warm the pool
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s.Run(true)
	}
	after := runtime.NumGoroutine()
	if after > before+2 { // tolerate unrelated runtime goroutines
		t.Fatalf("goroutines grew across keep re-runs: %d -> %d", before, after)
	}
	s.Run(false)
}
