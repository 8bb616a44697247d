package core

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// The tests in this file are the package's concurrency contract, written
// to be run under -race (the Makefile's tier-1 gate does so): Fork is
// single-producer, parallel Run requires Workers > 1, and the one overlap
// no mode permits — Fork during Run — panics deterministically.

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

// TestForkDuringRunPanics documents the contract's one hard prohibition:
// Fork must never overlap Run, in any mode. The scheduler detects the
// misuse and panics rather than corrupting the bin structures.
func TestForkDuringRunPanics(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20})
	s.Fork(func(int, int) {
		// A thread body forking into its own scheduler mid-run.
		s.Fork(func(int, int) {}, 0, 0, 0, 0, 0)
	}, 0, 0, 0, 0, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Fork during Run did not panic")
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
		t.Fatal("scheduler unusable after recovered misuse")
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

// TestKeepReRunsSharded exercises keep semantics and lifetime counters when
// bins are spread across the parallel-run workers: every keep re-run runs
// each thread once more, and Init preserves the lifetime counters. (The
// name dates from a striped fork table that Fork no longer uses.)
func TestKeepReRunsSharded(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 14, Workers: 4})
	defer s.Close()
	var runs atomic.Int64
	for i := 0; i < 8; i++ {
		s.Fork(func(int, int) { runs.Add(1) }, i, 0, uint64(i)<<14, 0, 0)
	}
	s.Run(true)
	s.Run(true)
	s.Run(false)
	if got := runs.Load(); got != 24 {
		t.Fatalf("threads ran %d times under keep, want 24", got)
	}
	st := s.Stats()
	if st.TotalForked != 8 || st.TotalRun != 24 || st.Runs != 3 {
		t.Errorf("stats = %+v", st)
	}
	s.Init(0, 0) // must preserve the lifetime counters
	if st := s.Stats(); st.TotalForked != 8 || st.TotalRun != 24 {
		t.Errorf("stats after Init = %+v", st)
	}
}
