package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"threadsched/internal/obs"
)

// waveDAG is a dependence graph to fork: thread i names deps[i] (all
// earlier threads) and hints hint[i] in its first dimension.
type waveDAG struct {
	deps [][]ThreadID
	hint []uint64
}

// randomWaveDAG draws n threads, each with up to three distinct
// predecessors among the previous 24 and a hint in one of bins blocks of
// 4 KiB.
func randomWaveDAG(seed int64, n, bins int) waveDAG {
	rng := rand.New(rand.NewSource(seed))
	g := waveDAG{deps: make([][]ThreadID, n), hint: make([]uint64, n)}
	for i := 0; i < n; i++ {
		for k := rng.Intn(4); k > 0 && i > 0; k-- {
			if dep := ThreadID(i - 1 - rng.Intn(min(i, 24))); !slices.Contains(g.deps[i], dep) {
				g.deps[i] = append(g.deps[i], dep)
			}
		}
		g.hint[i] = uint64(rng.Intn(bins)) << 12
	}
	return g
}

// gridWaveDAG is forkWavefront's iters×cols grid: (it,j) after (it,j-1)
// and (it-1,j+1), hinted by column.
func gridWaveDAG(iters, cols int) waveDAG {
	id := func(it, j int) ThreadID { return ThreadID(it*cols + j) }
	g := waveDAG{}
	for it := 0; it < iters; it++ {
		for j := 0; j < cols; j++ {
			var deps []ThreadID
			if j > 0 {
				deps = append(deps, id(it, j-1))
			}
			if it > 0 && j+1 < cols {
				deps = append(deps, id(it-1, j+1))
			}
			g.deps = append(g.deps, deps)
			g.hint = append(g.hint, uint64(j)<<12)
		}
	}
	return g
}

// levels returns each thread's Kahn level (longest dependence path from a
// source) and the number of levels.
func (g waveDAG) levels() (level []int, depth int) {
	level = make([]int, len(g.deps))
	for i, deps := range g.deps {
		for _, p := range deps {
			level[i] = max(level[i], level[p]+1)
		}
		depth = max(depth, level[i]+1)
	}
	return level, depth
}

// TestDepSchedulerWavesAreKahnLevels pins the wave executor's membership:
// every wave is exactly one Kahn level of the DAG. Run under each
// partitioning mode (flat, CriticalPathFirst, a two-level Topology), it
// checks the wave count against the DAG depth, that the frontier
// histogram has one observation per level summing to the thread count
// with the levels' extreme sizes, and, from atomic start and finish
// stamps, that no thread starts before every thread of a lower level has
// finished.
func TestDepSchedulerWavesAreKahnLevels(t *testing.T) {
	dags := map[string]waveDAG{
		"grid":    gridWaveDAG(7, 23),
		"random1": randomWaveDAG(1, 400, 5),
		"random2": randomWaveDAG(2, 600, 9),
		"random3": randomWaveDAG(3, 300, 3),
	}
	topo := mustTopo(t, "8k:2,64k:4")
	for name, g := range dags {
		level, depth := g.levels()
		size := make([]uint64, depth)
		for _, l := range level {
			size[l]++
		}
		minSize, maxSize := slices.Min(size), slices.Max(size)
		for _, workers := range []int{2, 4} {
			for _, critical := range []bool{false, true} {
				for _, tp := range []*Topology{nil, topo} {
					label := fmt.Sprintf("%s workers=%d critical=%v topo=%v", name, workers, critical, tp != nil)
					o := obs.New(workers)
					d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: workers,
						CriticalPathFirst: critical, Topology: tp, Obs: o})
					var clock atomic.Int64
					start := make([]int64, len(g.deps))
					finish := make([]int64, len(g.deps))
					for i := range g.deps {
						d.Fork(func(i, _ int) {
							atomic.StoreInt64(&start[i], clock.Add(1))
							atomic.StoreInt64(&finish[i], clock.Add(1))
						}, i, 0, g.hint[i], 0, 0, g.deps[i]...)
					}
					if d.BinsUsed() < 3 {
						t.Fatalf("%s: %d bins, want at least 3", label, d.BinsUsed())
					}
					err := d.Run()
					snap := d.Snapshot()
					d.Close()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if c, _ := snapCounter(snap, "dep.waves"); c.Total != uint64(depth) {
						t.Errorf("%s: dep.waves = %d, want DAG depth %d", label, c.Total, depth)
					}
					h, _ := snapHistogram(snap, "dep.frontier")
					if h.Count != uint64(depth) || h.Sum != uint64(len(g.deps)) ||
						h.Min != minSize || h.Max != maxSize {
						t.Errorf("%s: dep.frontier count=%d sum=%d min=%d max=%d, want %d levels of %d threads, sizes %d..%d",
							label, h.Count, h.Sum, h.Min, h.Max, depth, len(g.deps), minSize, maxSize)
					}
					// lastFinish[l] is the latest finish stamp of levels 0..l.
					lastFinish := make([]int64, depth)
					for i, l := range level {
						if start[i] == 0 {
							t.Fatalf("%s: thread %d never ran", label, i)
						}
						lastFinish[l] = max(lastFinish[l], finish[i])
					}
					for l := 1; l < depth; l++ {
						lastFinish[l] = max(lastFinish[l], lastFinish[l-1])
					}
					for i, l := range level {
						if l > 0 && start[i] < lastFinish[l-1] {
							t.Fatalf("%s: thread %d (level %d) started before level %d finished",
								label, i, l, l-1)
						}
					}
				}
			}
		}
	}
}

// TestDepSchedulerHaltedWaveLeaksNothing halts a wave — by a thread panic
// and by a cancel — after an earlier thread of the same bin has made a
// dependent runnable, then reuses the scheduler: the next run must
// execute each of its own threads exactly once, so the halted wave's
// readied dependents did not leak into its frontiers.
func TestDepSchedulerHaltedWaveLeaksNothing(t *testing.T) {
	for _, halt := range []string{"panic", "cancel"} {
		d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 2})
		ctx, cancel := context.WithCancel(context.Background())
		a := d.Fork(func(int, int) {}, 0, 0, 0, 0, 0)
		d.Fork(func(int, int) {
			if halt == "panic" {
				panic("halt")
			}
			cancel()
		}, 0, 0, 0, 0, 0)
		d.Fork(func(int, int) { t.Errorf("%s: dependent of the halted wave ran", halt) }, 0, 0, 0, 0, 0, a)
		err := d.RunContext(ctx)
		var tp *ThreadPanicError
		if halt == "panic" && !errors.As(err, &tp) || halt == "cancel" && !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v", halt, err)
		}

		g := gridWaveDAG(4, 9)
		runs := make([]int32, len(g.deps))
		for i := range g.deps {
			d.Fork(func(i, _ int) { atomic.AddInt32(&runs[i], 1) }, i, 0, g.hint[i], 0, 0, g.deps[i]...)
		}
		if err := d.Run(); err != nil {
			t.Fatalf("%s: reused scheduler: %v", halt, err)
		}
		d.Close()
		cancel()
		for i, n := range runs {
			if n != 1 {
				t.Fatalf("%s: reused scheduler ran thread %d %d times", halt, i, n)
			}
		}
	}
}

// BenchmarkDepSchedulerWaves runs SOR-shaped wavefront grids — 999
// columns, t sweeps, the sor app's window hints and half-cache blocks —
// through the two-worker wave executor with empty thread bodies, so the
// reported ns/thread is the executor's own per-thread cost (fork
// excluded). A per-wave cost proportional to the pending threads shows as
// ns/thread growing with t; a cost proportional to the frontier keeps it
// flat.
func BenchmarkDepSchedulerWaves(b *testing.B) {
	const (
		cols     = 999
		colBytes = 1001 * 8
		l2       = 2 << 20
	)
	null := func(int, int) {}
	for _, iters := range []int{10, 30, 90} {
		b.Run(fmt.Sprintf("t=%d", iters), func(b *testing.B) {
			d := NewDep(Config{CacheSize: l2, BlockSize: l2 / 2, Workers: 2})
			defer d.Close()
			prev := make([]ThreadID, cols)
			cur := make([]ThreadID, cols)
			var deps [2]ThreadID
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for it := 0; it < iters; it++ {
					for j := 0; j < cols; j++ {
						dd := deps[:0]
						if j > 0 {
							dd = append(dd, cur[j-1])
						}
						if it > 0 && j+1 < cols {
							dd = append(dd, prev[j+1])
						}
						cur[j] = d.Fork(null, j, 0, uint64(j)*colBytes, uint64(j+3)*colBytes, 0, dd...)
					}
					prev, cur = cur, prev
				}
				b.StartTimer()
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters*cols), "ns/thread")
		})
	}
}
