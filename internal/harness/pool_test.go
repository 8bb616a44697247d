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
	jobs := make([]row, n)
	for i := range jobs {
		release[i] = make(chan struct{})
		jobs[i] = hookJob(fmt.Sprint(i), func() {
			if r := running.Add(1); r > 2 {
				t.Errorf("job %d started with %d jobs running, want at most 2", i, r)
			}
			started <- i
			<-release[i]
			running.Add(-1)
		})
	}
	c := tinyConfig()
	c.Parallel = 2
	done := make(chan map[string]SimResult, 1)
	go func() { done <- c.runJobs(nil, jobs) }()
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

// sorAllocs runs one untiled SOR job per key through a single runJobs
// call at c, one job at a time, and returns the results and the bytes
// each job allocated: every job's hook reads the allocation counter as
// it starts, and the last job ends when runJobs returns.
func sorAllocs(c Config, keys ...string) (map[string]SimResult, []uint64) {
	var marks []uint64
	mark := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		marks = append(marks, ms.TotalAlloc)
	}
	rows := make([]row, len(keys))
	for i, k := range keys {
		rows[i] = row{k, JobSpec{Kind: JobSOR, Variant: "untiled", Hook: mark}}
	}
	out := c.runJobs(nil, rows)
	mark()
	allocated := make([]uint64, len(keys))
	for i := range allocated {
		allocated[i] = marks[i+1] - marks[i]
	}
	return out, allocated
}

// The jobs of one runJobs call share one arena, handed to them through
// the Config they run with (TestRunJobsRecycleBuffers sees the sharing);
// each call gets its own, and a Config outside runJobs carries none.
// Seen through allocation: a second call's first job, with a fresh
// arena, allocates the SOR array the first call's second job recycled.
func TestRunJobsShareOneArena(t *testing.T) {
	c := jobConfig()
	_, first := sorAllocs(c, "a", "b")
	_, second := sorAllocs(c, "c")
	array := uint64(c.SORN * c.SORN * 8)
	if second[0] < first[1]+array {
		t.Fatalf("a second runJobs call's first job allocated %d bytes, the first call's second job %d: want the second call to start with an empty arena",
			second[0], first[1])
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
	out, allocated := sorAllocs(c, "0", "1")
	requireSameResult(t, "recycled", out["0"], out["1"])
	array := uint64(c.SORN * c.SORN * 8)
	if allocated[1]+array > allocated[0] {
		t.Fatalf("second job allocated %d bytes, first %d: want at least the %d-byte array recycled",
			allocated[1], allocated[0], array)
	}
}
