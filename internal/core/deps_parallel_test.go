package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// forkWavefront forks an iters×cols SOR-style dependence grid: thread
// (it,j) adds into cell (it,j) from its neighbours and depends on
// (it,j-1) and (it-1,j+1) — the same shape the sor app uses. Each
// thread writes only its own cell, so any execution respecting the
// dependences is race-free and produces the same grid.
func forkWavefront(d *DepScheduler, grid []int64, iters, cols int) {
	id := func(it, j int) ThreadID { return ThreadID(it*cols + j) }
	for it := 0; it < iters; it++ {
		for j := 0; j < cols; j++ {
			it, j := it, j
			var deps []ThreadID
			if j > 0 {
				deps = append(deps, id(it, j-1))
			}
			if it > 0 && j+1 < cols {
				deps = append(deps, id(it-1, j+1))
			}
			d.Fork(func(_, _ int) {
				v := int64(1)
				if j > 0 {
					v += grid[it*cols+j-1]
				}
				if it > 0 && j+1 < cols {
					v += grid[(it-1)*cols+j+1]
				}
				grid[it*cols+j] = v
			}, 0, 0, uint64(j)<<14, 0, 0, deps...)
		}
	}
}

// TestDepSchedulerParallelWavefrontMatchesSerial runs the dependence
// grid through the executor at every worker count and requires the grid
// a plain nested loop over forkWavefront's recurrence computes, so the
// oracle does not share the executor it checks.
func TestDepSchedulerParallelWavefrontMatchesSerial(t *testing.T) {
	const iters, cols = 7, 23
	want := make([]int64, iters*cols)
	for it := 0; it < iters; it++ {
		for j := 0; j < cols; j++ {
			v := int64(1)
			if j > 0 {
				v += want[it*cols+j-1]
			}
			if it > 0 && j+1 < cols {
				v += want[(it-1)*cols+j+1]
			}
			want[it*cols+j] = v
		}
	}

	for _, workers := range []int{0, 1, 2, 4} {
		got := make([]int64, iters*cols)
		d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 14, Workers: workers})
		defer d.Close()
		forkWavefront(d, got, iters, cols)
		if err := d.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, k, got[k], want[k])
			}
		}
	}
}

// TestDepSchedulerParallelTopologicalOrder builds a random DAG and
// checks, via an atomic completion flag per thread, that no thread
// starts before all of its dependencies finished.
func TestDepSchedulerParallelTopologicalOrder(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(11))
	d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 4})
	defer d.Close()

	done := make([]int32, n)
	depsOf := make([][]ThreadID, n)
	var violations int32
	for i := 0; i < n; i++ {
		i := i
		// Depend on up to 3 random earlier threads: always acyclic.
		for k := 0; k < 3 && i > 0; k++ {
			if rng.Intn(2) == 0 {
				depsOf[i] = append(depsOf[i], ThreadID(rng.Intn(i)))
			}
		}
		d.Fork(func(_, _ int) {
			for _, dep := range depsOf[i] {
				if atomic.LoadInt32(&done[dep]) == 0 {
					atomic.AddInt32(&violations, 1)
				}
			}
			atomic.StoreInt32(&done[i], 1)
		}, 0, 0, uint64(rng.Intn(16))<<12, 0, 0, depsOf[i]...)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if v := atomic.LoadInt32(&violations); v != 0 {
		t.Fatalf("%d threads started before a dependency completed", v)
	}
	for i, f := range done {
		if f == 0 {
			t.Fatalf("thread %d never ran", i)
		}
	}
}

// TestDepSchedulerParallelUnknownDepRejected checks the parallel Run
// still reports forward/unknown dependencies and resets cleanly.
func TestDepSchedulerParallelUnknownDepRejected(t *testing.T) {
	d := NewDep(Config{CacheSize: 1 << 20, Workers: 4})
	defer d.Close()
	d.Fork(func(_, _ int) {}, 0, 0, 0, 0, 0, ThreadID(7))
	if err := d.Run(); err == nil {
		t.Fatal("unknown dependency accepted")
	}
	if d.Pending() != 0 {
		t.Fatal("failed run left threads pending")
	}
}

// TestDepSchedulerParallelReuse reuses one parallel DepScheduler across
// consecutive Run calls, as the apps do.
func TestDepSchedulerParallelReuse(t *testing.T) {
	d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 14, Workers: 4})
	defer d.Close()
	for round := 0; round < 3; round++ {
		const iters, cols = 4, 9
		grid := make([]int64, iters*cols)
		forkWavefront(d, grid, iters, cols)
		if err := d.Run(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if grid[iters*cols-1] == 0 {
			t.Fatalf("round %d: last cell never computed", round)
		}
	}
}
