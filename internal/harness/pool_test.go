package harness

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// At Parallel 2, runJobs starts two workers that take the jobs in the
// order the table declares them: the first two jobs start together, no
// more than two ever run at once, and each job that finishes lets exactly
// the next declared job start.
func TestRunJobsStartInDeclarationOrder(t *testing.T) {
	const n = 6
	started := make(chan int, n)
	release := make([]chan struct{}, n)
	var running atomic.Int32
	jobs := make([]simJob, n)
	for i := range jobs {
		release[i] = make(chan struct{})
		jobs[i] = simJob{key: fmt.Sprint(i), what: fmt.Sprint("job ", i), run: func(Config) SimResult {
			if r := running.Add(1); r > 2 {
				t.Errorf("job %d started with %d jobs running, want at most 2", i, r)
			}
			started <- i
			<-release[i]
			running.Add(-1)
			return SimResult{}
		}}
	}
	done := make(chan map[string]SimResult, 1)
	go func() { done <- Config{Parallel: 2}.runJobs(nil, jobs) }()
	next := func() int {
		select {
		case i := <-started:
			return i
		case <-time.After(10 * time.Second):
			t.Fatal("no job started within 10s")
			return -1
		}
	}
	if a, b := next(), next(); min(a, b) != 0 || max(a, b) != 1 {
		t.Fatalf("first jobs started: %d and %d, want 0 and 1", a, b)
	}
	for i := 2; i < n; i++ {
		close(release[i-2])
		if got := next(); got != i {
			t.Fatalf("after job %d finished, job %d started; want %d", i-2, got, i)
		}
	}
	close(release[n-2])
	close(release[n-1])
	if out := <-done; len(out) != n {
		t.Fatalf("runJobs returned %d results, want %d", len(out), n)
	}
}

// The jobs of one runJobs call share one arena, handed to them through
// the Config they run with; each call gets its own, and a Config outside
// runJobs carries none.
func TestRunJobsShareOneArena(t *testing.T) {
	var seen []*jobArena
	job := func(key string) simJob {
		return simJob{key: key, what: key, run: func(c Config) SimResult {
			seen = append(seen, c.arena)
			return SimResult{}
		}}
	}
	var c Config
	c.runJobs(nil, []simJob{job("a"), job("b")})
	c.runJobs(nil, []simJob{job("c")})
	if seen[0] == nil || seen[0] != seen[1] {
		t.Fatalf("jobs of one table ran with arenas %p and %p, want one shared arena", seen[0], seen[1])
	}
	if seen[2] == seen[0] {
		t.Fatal("a second runJobs call reused the first call's arena")
	}
	if c.arena != nil {
		t.Fatal("runJobs set the arena on its caller's Config")
	}
}

// A table's second job reuses the first job's workload array and chunk
// buffers: run back to back through runJobs, the second SOR simulation
// allocates at least one SOR array less than the first.
func TestRunJobsRecycleBuffers(t *testing.T) {
	c := jobConfig()
	allocated := make([]uint64, 2)
	var jobs []simJob
	for i := range allocated {
		jobs = append(jobs, simJob{key: fmt.Sprint(i), what: "sor", run: func(c Config) SimResult {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := c.RunSOR(SORUntiled, c.R8000())
			runtime.ReadMemStats(&after)
			allocated[i] = after.TotalAlloc - before.TotalAlloc
			return r
		}})
	}
	out := c.runJobs(nil, jobs)
	requireSameResult(t, "recycled", out["0"], out["1"])
	array := uint64(c.SORN * c.SORN * 8)
	if allocated[1]+array > allocated[0] {
		t.Fatalf("second job allocated %d bytes, first %d: want at least the %d-byte array recycled",
			allocated[1], allocated[0], array)
	}
}
