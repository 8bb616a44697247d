package harness

import (
	"context"
	"runtime"
	"testing"
	"time"

	"threadsched/internal/sim"
)

// tinyConfig is a geometry whose matmul emits no reference at all, for
// tests of the job pool rather than of the kernels: a job at it is its
// hook, and a cancellation cannot interrupt it.
func tinyConfig() Config {
	c := Quick()
	c.MatmulN = 0
	return c
}

// hookJob is a row keyed key whose simulation, an empty untiled matmul
// at tinyConfig, runs after hook: the JobSpec.Hook seam is how these
// tests make a job block, cancel or panic.
func hookJob(key string, hook func()) row {
	return row{key, JobSpec{Kind: JobMatmul, Variant: "interchanged", Hook: hook}}
}

func okJob(key string) row { return hookJob(key, nil) }

func panicJob(key string, v any) row { return hookJob(key, func() { panic(v) }) }

// recoverJobs runs runJobs and returns the recovered *JobPanicError, if
// any, alongside the results it produced before panicking.
func recoverJobs(c Config, jobs []row) (perr *JobPanicError, out map[string]SimResult) {
	defer func() {
		if v := recover(); v != nil {
			perr = v.(*JobPanicError)
		}
	}()
	out = c.runJobs(nil, jobs)
	return
}

// TestRunJobsSerialPanicTyped: a serial job panic surfaces as a
// *JobPanicError naming the job, after the jobs before it completed.
func TestRunJobsSerialPanicTyped(t *testing.T) {
	perr, _ := recoverJobs(tinyConfig(), []row{
		okJob("a"),
		panicJob("bad", "kernel blew up"),
		okJob("never"),
	})
	if perr == nil {
		t.Fatal("no JobPanicError recovered")
	}
	if perr.Key != "bad" || perr.Value != "kernel blew up" {
		t.Errorf("JobPanicError = %+v", perr)
	}
	if len(perr.Stack) == 0 {
		t.Error("no stack captured")
	}
	if perr.Error() == "" {
		t.Error("empty Error()")
	}
}

// TestRunJobsParallelPanicQuiesces: with parallel jobs, one panic must
// not crash the process from a worker goroutine; runJobs waits for
// in-flight jobs, skips queued ones, and re-panics typed on the caller.
func TestRunJobsParallelPanicQuiesces(t *testing.T) {
	before := countGoroutines()
	jobs := make([]row, 0, 16)
	for i := 0; i < 8; i++ {
		jobs = append(jobs, okJob(string(rune('a'+i))))
	}
	jobs = append(jobs, panicJob("bad", 42))
	for i := 0; i < 7; i++ {
		jobs = append(jobs, okJob(string(rune('p'+i))))
	}
	c := tinyConfig()
	c.Parallel = 4
	perr, _ := recoverJobs(c, jobs)
	if perr == nil {
		t.Fatal("no JobPanicError recovered")
	}
	if perr.Key != "bad" || perr.Value != 42 {
		t.Errorf("JobPanicError = %+v", perr)
	}
	for i := 0; i < 100; i++ {
		if countGoroutines() <= before {
			return
		}
	}
	t.Errorf("goroutines: %d before, %d after — job workers leaked", before, runtime.NumGoroutine())
}

// TestRunJobsContextStopsNewJobs: a done Config.Context prevents queued
// jobs from starting; completed results are returned.
func TestRunJobsContextStopsNewJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	jobs := []row{
		hookJob("first", func() { ran++; cancel() }),
		hookJob("second", func() { ran++ }),
	}
	c := tinyConfig()
	c.Context = ctx
	out := c.runJobs(nil, jobs)
	if ran != 1 {
		t.Fatalf("%d jobs ran after cancellation, want 1", ran)
	}
	if _, ok := out["first"]; !ok || len(out) != 1 {
		t.Fatalf("results = %v, want only %q", out, "first")
	}
	// Already-cancelled context: nothing runs at any parallelism.
	for _, par := range []int{0, 4} {
		c.Parallel = par
		out := c.runJobs(nil, []row{okJob("x")})
		if len(out) != 0 {
			t.Fatalf("Parallel=%d: %d jobs ran under a done context", par, len(out))
		}
	}
}

// TestRunJobsCancelledMidRun is the regression test for the SIGINT
// crash: when Config.Context is cancelled *while a job is running*, the
// cancel-aware CPU unwinds the job with a panic chain ending in
// *sim.CancelledError. runJobs must classify that as the context door
// closing — stop dispatching and return the results gathered so far —
// not re-panic it at the caller (which turned a clean interrupt into a
// process crash). Exercises both the serial and parallel paths.
func TestRunJobsCancelledMidRun(t *testing.T) {
	for _, par := range []int{0, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		jobs := []row{
			okJob("ok"),
			hookJob("cut", func() {
				cancel()
				panic(&sim.CancelledError{Err: ctx.Err()})
			}),
			okJob("after"),
		}
		c := tinyConfig()
		c.Context, c.Parallel = ctx, par
		perr, out := recoverJobs(c, jobs)
		if perr != nil {
			t.Fatalf("Parallel=%d: cancellation re-panicked: %v", par, perr)
		}
		if _, ok := out["cut"]; ok {
			t.Errorf("Parallel=%d: cancelled job produced a result", par)
		}
		if par == 0 {
			if _, ok := out["ok"]; !ok {
				t.Errorf("Parallel=0: pre-cancel result dropped: %v", out)
			}
			if _, ok := out["after"]; ok {
				t.Errorf("Parallel=0: job after cancellation still ran")
			}
		}
		cancel()
	}
}

func countGoroutines() int {
	runtime.GC()
	time.Sleep(time.Millisecond)
	return runtime.NumGoroutine()
}
