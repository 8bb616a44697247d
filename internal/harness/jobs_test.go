package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"threadsched/internal/obs"
)

func jobConfig() Config {
	c := Quick()
	c.MatmulN = 64
	c.SORN = 101
	c.SORIters = 4
	c.PDEN = 65
	c.PDEIters = 2
	c.NBodyN = 500
	c.NBodySteps = 1
	return c
}

// TestRunJobCompletes smoke-tests the spec mapping across kinds and pins
// that a served job's result is identical to the table's run of the same
// row — the spot-check the daemon's correctness claim rests on.
func TestRunJobCompletes(t *testing.T) {
	c := jobConfig()
	specs := []JobSpec{
		{Kind: JobMatmul, Variant: "interchanged"},
		{Kind: JobMatmul}, // default threaded/r8000
		{Kind: JobPDE, Variant: "threaded", Machine: "r10000"},
		{Kind: JobSOR, Variant: "untiled"},
		{Kind: JobNBody, Variant: "threaded"},
	}
	for _, spec := range specs {
		r, err := c.RunJob(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.What(), err)
		}
		if r.Instructions == 0 || r.Summary.DataRefs == 0 {
			t.Fatalf("%s: empty result %+v", spec.What(), r)
		}
	}
	var threaded []row
	for _, r := range table2Rows {
		if r.key == "r8000/Threaded" {
			threaded = append(threaded, r)
		}
	}
	direct := c.runJobs(nil, threaded)["r8000/Threaded"]
	served, err := c.RunJob(context.Background(), JobSpec{Kind: JobMatmul, Variant: "threaded"})
	if err != nil {
		t.Fatal(err)
	}
	if served.Instructions != direct.Instructions || served.Summary != direct.Summary {
		t.Fatalf("served result differs from direct run:\n served %+v\n direct %+v", served.Summary, direct.Summary)
	}
}

// TestRunJobBadSpecs pins the ErrBadJobSpec classification for every
// validation failure a decoded request can carry.
func TestRunJobBadSpecs(t *testing.T) {
	c := jobConfig()
	bad := []JobSpec{
		{Kind: "fft"},
		{Kind: JobMatmul, Variant: "strassen"},
		{Kind: JobMatmul, Machine: "cray"},
		{Kind: JobSOR, Variant: "untiled", Block: 4096},
		{Kind: JobTable},
	}
	for _, spec := range bad {
		if _, err := c.RunJob(context.Background(), spec); !errors.Is(err, ErrBadJobSpec) {
			t.Fatalf("%+v: err = %v, want ErrBadJobSpec", spec, err)
		}
	}
	if _, err := c.RunExperiment(context.Background(), "table99"); !errors.Is(err, ErrBadJobSpec) {
		t.Fatalf("RunExperiment(table99) = %v, want ErrBadJobSpec", err)
	}
}

// TestRunJobPanicContained pins the panic → error conversion: a panic
// inside a served job (injected through the Hook seam) must come back as
// a *JobPanicError, never escape as a panic, and never poison a later
// job on the same Config.
func TestRunJobPanicContained(t *testing.T) {
	c := jobConfig()
	spec := JobSpec{Kind: JobMatmul, Variant: "threaded", Hook: func() { panic("injected") }}
	_, err := c.RunJob(context.Background(), spec)
	var jpe *JobPanicError
	if !errors.As(err, &jpe) {
		t.Fatalf("err = %v, want *JobPanicError", err)
	}
	if jpe.Value != "injected" {
		t.Fatalf("panic value = %v", jpe.Value)
	}
	// The Config (and its Obs, if any) must still serve.
	if _, err := c.RunJob(context.Background(), JobSpec{Kind: JobMatmul, Variant: "threaded"}); err != nil {
		t.Fatalf("job after contained panic: %v", err)
	}
}

// TestRunJobCancelledBeforeStart pins the fast path: an already-done
// context runs nothing.
func TestRunJobCancelledBeforeStart(t *testing.T) {
	c := jobConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunJob(ctx, JobSpec{Kind: JobMatmul}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunJobCancelLatency pins mid-run cancellation: it must interrupt
// a job mid-run — not merely stop new jobs — within a bounded latency, on
// the serial oracle and on both hand-offs of the default path: inline
// (GOMAXPROCS=1) and ring (GOMAXPROCS=2). Before the CPU/pipeline
// cancellation hooks, this test hangs until the full simulation completes
// (tens of seconds at this geometry).
func TestRunJobCancelLatency(t *testing.T) {
	for _, v := range []struct {
		name   string
		serial bool
		procs  int
	}{
		{"inline", false, 1},
		{"serial", true, 0},
		{"pipeline", false, 2},
	} {
		t.Run(v.name, func(t *testing.T) {
			if v.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.procs))
			}
			c := Scaled()
			c.MatmulN = 512 // several hundred million references: minutes if not cancelled
			c.serial = v.serial
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := c.RunJob(ctx, JobSpec{Kind: JobMatmul, Variant: "threaded"})
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Worst-case cancel latency is one emission chunk plus one bin
			// of threads; 2s is orders of magnitude of headroom over that,
			// and orders of magnitude under the uncancelled run time.
			if elapsed > 2*time.Second {
				t.Fatalf("cancellation took %v, want < 2s", elapsed)
			}
		})
	}
}

// TestRunJobDeadline pins deadline classification end to end.
func TestRunJobDeadline(t *testing.T) {
	c := Scaled()
	c.MatmulN = 512
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.RunJob(ctx, JobSpec{Kind: JobMatmul, Variant: "threaded"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunExperimentDeadline pins that a table whose deadline expires
// mid-run reports the deadline and no text: the rows that never ran
// would otherwise render as zeros under a nil error.
func TestRunExperimentDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	text, err := Quick().RunExperiment(ctx, "table2")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if text != "" {
		t.Fatalf("text = %q, want none", text)
	}
}

// TestPipelinedJobFailureLeaksNoGoroutine is the satellite-1 regression
// for the daemon's steady state: a pipelined job that dies mid-run (here
// via cancellation; a thread panic takes the same unwind) used to leak
// its pipeline consumer goroutine, parked on the ring forever — one
// goroutine plus chunk buffers per failed job, unbounded in a server.
// simulate's deferred CloseContext now releases it.
func TestPipelinedJobFailureLeaksNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // force the concurrent ring
	c := Scaled()
	c.MatmulN = 256
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		if _, err := c.RunJob(ctx, JobSpec{Kind: JobMatmul, Variant: "threaded"}); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
		cancel()
	}
	// Give released consumers a moment to exit before counting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before %d, after %d — pipeline consumers leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConfigReuseSequentialIdentical is the satellite-1 audit pin: one
// Config value reused across sequential jobs — including after a
// contained panic and a cancellation — produces results identical to a
// fresh Config every time. Any state carried over between jobs
// (memoized tours, pooled workers, obs tracks, lastRun) would show here.
func TestConfigReuseSequentialIdentical(t *testing.T) {
	c := jobConfig()
	spec := JobSpec{Kind: JobSOR, Variant: "threaded"}
	fresh, err := jobConfig().RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, err := c.RunJob(context.Background(), spec)
		if err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
		if r.Instructions != fresh.Instructions || r.Summary != fresh.Summary || r.Sched != fresh.Sched {
			t.Fatalf("reuse %d: result drifted from fresh Config", i)
		}
		// Interleave a failure and a cancellation between good runs.
		if _, err := c.RunJob(context.Background(), JobSpec{Kind: JobSOR, Variant: "threaded", Hook: func() { panic("boom") }}); err == nil {
			t.Fatal("hooked job did not fail")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := c.RunJob(ctx, spec); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled job: %v", err)
		}
	}
}

// TestConfigReuseConcurrentRace drives one shared Config (with a shared
// Obs) from many goroutines at once — the daemon's worker-pool pattern,
// which no batch path exercises — under -race, asserting every result
// matches the fresh-Config baseline.
func TestConfigReuseConcurrentRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c := jobConfig()
	c.Obs = obs.New(4)
	specs := []JobSpec{
		{Kind: JobMatmul, Variant: "threaded"},
		{Kind: JobSOR, Variant: "threaded"},
		{Kind: JobPDE, Variant: "threaded"},
	}
	want := make([]SimResult, len(specs))
	for i, s := range specs {
		r, err := jobConfig().RunJob(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := specs[g%len(specs)]
			r, err := c.RunJob(context.Background(), s)
			if err != nil {
				errs <- err
				return
			}
			w := want[g%len(specs)]
			if r.Instructions != w.Instructions || r.Summary != w.Summary {
				errs <- errors.New(s.What() + ": concurrent result differs from fresh baseline")
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A served N-body job with a block override runs the steps it asks for:
// a Block no longer drops Steps to one.
func TestRunJobNBodyBlockHonoursSteps(t *testing.T) {
	c := jobConfig()
	block := c.NBodyR8000().L2CacheSize() / 4
	var instr [2]uint64
	for i, steps := range []int{1, 2} {
		r, err := c.RunJob(context.Background(), JobSpec{Kind: JobNBody, Block: block, Steps: steps})
		if err != nil {
			t.Fatal(err)
		}
		instr[i] = r.Instructions
	}
	if instr[1] <= instr[0] {
		t.Fatalf("2 steps ran %d instructions, 1 step %d: want more", instr[1], instr[0])
	}
}

// A served job on the modern machine runs the unscaled model, as the
// Modern table does: at Quick, untiled matmul takes the table's L2 and
// L3 misses.
func TestRunJobModernIsUnscaled(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "quick", "modern.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(string(golden), "\n") {
		if f := strings.Fields(l); len(f) == 5 && f[0] == "Interchanged" {
			want = f[3:]
		}
	}
	if want == nil {
		t.Fatalf("no Interchanged row in modern.txt:\n%s", golden)
	}
	r, err := Quick().RunJob(context.Background(), JobSpec{Kind: JobMatmul, Variant: "interchanged", Machine: "modern"})
	if err != nil {
		t.Fatal(err)
	}
	got := []string{fmt.Sprint(r.Summary.L2.Misses), fmt.Sprint(r.Summary.L3.Misses)}
	if !slices.Equal(got, want) {
		t.Fatalf("served modern L2/L3 misses %v, Modern table %v", got, want)
	}
}

// tableRows is every table's declared rows, at c.
func tableRows(c Config) map[string][]row {
	return map[string][]row{
		"table2": table2Rows, "table3": table3Rows, "table4": table4Rows, "table5": table5Rows,
		"table6": table6Rows, "table7": table7Rows, "table8": table8Rows, "table9": table9Rows,
		"figure4": c.figure4Rows(), "modern": modernRows,
	}
}

// The tables' rows are data that can be compared without simulating
// anything: every row resolves, keys are unique within a table, the miss
// tables re-run jobs of the time tables, and Figure 4's C/2 column is
// the time tables' threaded job.
func TestTableRowsShareJobs(t *testing.T) {
	for _, c := range []Config{Quick(), Scaled(), Full()} {
		resolved := map[string]map[string]job{}
		for name, rows := range tableRows(c) {
			resolved[name] = map[string]job{}
			for _, r := range rows {
				j, err := c.resolve(r.spec)
				if err != nil {
					t.Fatalf("%s row %q: %v", name, r.key, err)
				}
				if _, dup := resolved[name][r.key]; dup {
					t.Fatalf("%s: key %q declared twice", name, r.key)
				}
				resolved[name][r.key] = j
			}
		}
		r8000Jobs := func(name string) []job {
			var js []job
			for key, j := range resolved[name] {
				if strings.HasPrefix(key, "r8000/") {
					js = append(js, j)
				}
			}
			return js
		}
		for miss, time := range map[string]string{"table3": "table2", "table5": "table4", "table7": "table6"} {
			for key, j := range resolved[miss] {
				if !slices.Contains(r8000Jobs(time), j) {
					t.Errorf("%s row %q is not one of %s's R8000 jobs", miss, key, time)
				}
			}
		}
		for app, time := range map[string]string{"matmul": "table2", "sor": "table6", "pde": "table4"} {
			if got, want := resolved["figure4"]["C/2/"+app], resolved[time]["r8000/Threaded"]; got != want {
				t.Errorf("Figure 4's C/2 %s job %+v, %s's threaded R8000 job %+v", app, got, time, want)
			}
		}
	}
}
