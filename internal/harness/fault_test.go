package harness

import (
	"context"
	"runtime"
	"testing"
	"time"

	"threadsched/internal/sim"
)

func okJob(key string) simJob {
	return simJob{key: key, what: key, run: func(Config) SimResult { return SimResult{} }}
}

func panicJob(key string, v any) simJob {
	return simJob{key: key, what: key, run: func(Config) SimResult { panic(v) }}
}

// recoverJobs runs runJobs and returns the recovered *JobPanicError, if
// any, alongside the results it produced before panicking.
func recoverJobs(c Config, jobs []simJob) (perr *JobPanicError, out map[string]SimResult) {
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
	perr, _ := recoverJobs(Config{}, []simJob{
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
	jobs := make([]simJob, 0, 16)
	for i := 0; i < 8; i++ {
		jobs = append(jobs, okJob(string(rune('a'+i))))
	}
	jobs = append(jobs, panicJob("bad", 42))
	for i := 0; i < 7; i++ {
		jobs = append(jobs, okJob(string(rune('p'+i))))
	}
	perr, _ := recoverJobs(Config{Parallel: 4}, jobs)
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
	jobs := []simJob{
		{key: "first", what: "first", run: func(Config) SimResult { ran++; cancel(); return SimResult{} }},
		{key: "second", what: "second", run: func(Config) SimResult { ran++; return SimResult{} }},
	}
	out := Config{Context: ctx}.runJobs(nil, jobs)
	if ran != 1 {
		t.Fatalf("%d jobs ran after cancellation, want 1", ran)
	}
	if _, ok := out["first"]; !ok || len(out) != 1 {
		t.Fatalf("results = %v, want only %q", out, "first")
	}
	// Already-cancelled context: nothing runs at any parallelism.
	for _, par := range []int{0, 4} {
		out := Config{Context: ctx, Parallel: par}.runJobs(nil, []simJob{okJob("x")})
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
		jobs := []simJob{
			{key: "ok", what: "ok", run: func(Config) SimResult { return SimResult{} }},
			{key: "cut", what: "cut", run: func(Config) SimResult {
				cancel()
				panic(&sim.CancelledError{Err: ctx.Err()})
			}},
			okJob("after"),
		}
		perr, out := recoverJobs(Config{Context: ctx, Parallel: par}, jobs)
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
