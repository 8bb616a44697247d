package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// depDAG is a dependence graph to fork: thread i names deps[i] (all
// earlier threads) and hints hint[i] in its first dimension.
type depDAG struct {
	deps [][]ThreadID
	hint []uint64
}

// randomDAG draws n threads, each with up to three distinct
// predecessors among the previous 24 and a hint in one of bins blocks of
// 4 KiB.
func randomDAG(seed int64, n, bins int) depDAG {
	rng := rand.New(rand.NewSource(seed))
	g := depDAG{deps: make([][]ThreadID, n), hint: make([]uint64, n)}
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

// gridDAG is forkWavefront's iters×cols grid: (it,j) after (it,j-1)
// and (it-1,j+1), hinted by column.
func gridDAG(iters, cols int) depDAG {
	id := func(it, j int) ThreadID { return ThreadID(it*cols + j) }
	g := depDAG{}
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

// TestDepSchedulerDataflowOrder pins the executor's contract on
// SOR-shaped and random DAGs, at one worker (the calling goroutine) and
// on the worker pool: atomic start and finish stamps show that every
// thread starts after each of its own predecessors finished, and every
// thread runs exactly once.
func TestDepSchedulerDataflowOrder(t *testing.T) {
	dags := map[string]depDAG{
		"grid":    gridDAG(7, 23),
		"random1": randomDAG(1, 400, 5),
		"random2": randomDAG(2, 600, 9),
		"random3": randomDAG(3, 300, 3),
	}
	for name, g := range dags {
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: workers})
			var clock atomic.Int64
			start := make([]int64, len(g.deps))
			finish := make([]int64, len(g.deps))
			runs := make([]int32, len(g.deps))
			for i := range g.deps {
				d.Fork(func(i, _ int) {
					atomic.AddInt32(&runs[i], 1)
					atomic.StoreInt64(&start[i], clock.Add(1))
					atomic.StoreInt64(&finish[i], clock.Add(1))
				}, i, 0, g.hint[i], 0, 0, g.deps[i]...)
			}
			if d.BinsUsed() < 3 {
				t.Fatalf("%s: %d bins, want at least 3", label, d.BinsUsed())
			}
			err := d.Run()
			d.Close()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, deps := range g.deps {
				if runs[i] != 1 {
					t.Fatalf("%s: thread %d ran %d times", label, i, runs[i])
				}
				for _, p := range deps {
					if start[i] < finish[p] {
						t.Fatalf("%s: thread %d started before its predecessor %d finished", label, i, p)
					}
				}
			}
		}
	}
}

// TestDepSchedulerHaltedRunLeaksNothing halts a parallel run — by a
// thread panic and by a cancel — while independent threads are still
// queued on the ready heap. The thread whose only predecessor is the
// halting thread never runs, no thread starts after RunContext returns,
// and the reused scheduler's next run executes each of its own threads
// exactly once, so no runnable thread of the halted run leaked into it.
func TestDepSchedulerHaltedRunLeaksNothing(t *testing.T) {
	for _, halt := range []string{"panic", "cancel"} {
		d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 2})
		ctx, cancel := context.WithCancel(context.Background())
		var returned atomic.Bool
		var late atomic.Int32
		body := func(int, int) {
			if returned.Load() {
				late.Add(1)
			}
		}
		h := d.Fork(func(int, int) {
			if halt == "panic" {
				panic("halt")
			}
			cancel()
		}, 0, 0, 0, 0, 0)
		d.Fork(func(int, int) { t.Errorf("%s: the halting thread's dependent ran", halt) }, 0, 0, 0, 0, 0, h)
		for i := 0; i < 64; i++ {
			d.Fork(body, i, 0, uint64(1+i%5)<<12, 0, 0)
		}
		err := d.RunContext(ctx)
		returned.Store(true)
		var tp *ThreadPanicError
		if halt == "panic" && !errors.As(err, &tp) || halt == "cancel" && !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v", halt, err)
		}
		if tp != nil && (tp.Phase != "dataflow" || tp.Thread != int(h) || tp.Bin != 0) {
			t.Errorf("%s: panic at phase %q thread %d bin %d, want dataflow thread %d bin 0",
				halt, tp.Phase, tp.Thread, tp.Bin, h)
		}

		g := gridDAG(4, 9)
		runs := make([]int32, len(g.deps))
		for i := range g.deps {
			d.Fork(func(i, _ int) { atomic.AddInt32(&runs[i], 1) }, i, 0, g.hint[i], 0, 0, g.deps[i]...)
		}
		if err := d.Run(); err != nil {
			t.Fatalf("%s: reused scheduler: %v", halt, err)
		}
		d.Close()
		cancel()
		if n := late.Load(); n != 0 {
			t.Fatalf("%s: %d threads of the halted run started after RunContext returned", halt, n)
		}
		for i, n := range runs {
			if n != 1 {
				t.Fatalf("%s: reused scheduler ran thread %d %d times", halt, i, n)
			}
		}
	}
}

// BenchmarkDepSchedulerDataflow runs SOR-shaped wavefront grids — 999
// columns, t sweeps, the sor app's window hints and half-cache blocks —
// through the executor on one worker (w1, the calling goroutine alone)
// and on two (w2), with empty thread bodies, so the reported ns/thread is
// the executor's own per-thread cost (fork excluded). Any cost that grows
// with the pending threads shows as ns/thread growing with t.
func BenchmarkDepSchedulerDataflow(b *testing.B) {
	const (
		cols     = 999
		colBytes = 1001 * 8
		l2       = 2 << 20
	)
	null := func(int, int) {}
	for _, workers := range []int{1, 2} {
		for _, iters := range []int{10, 30, 90} {
			b.Run(fmt.Sprintf("w%d/t=%d", workers, iters), func(b *testing.B) {
				d := NewDep(Config{CacheSize: l2, BlockSize: l2 / 2, Workers: workers})
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
}
