// Package harness runs the paper's experiments — Tables 1 through 9 and
// Figure 4 — against the reproduction's simulator stack and renders
// paper-vs-measured tables.
//
// Geometry scaling: by default every experiment runs at laptop scale with
// cache capacities divided by Config.Scale and workload data shrunk to
// preserve the paper's data-to-cache ratios, so the *shape* of each result
// (who wins, by what factor, where the crossover falls) is reproduced in
// seconds instead of hours. Config.Full() selects the paper's exact sizes.
package harness

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"threadsched/internal/arena"
	"threadsched/internal/cache"
	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/obs"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// Config selects workload sizes and cache scaling for the experiments.
type Config struct {
	// Scale divides cache capacities (power of two). Workload sizes below
	// should shrink consistently; the constructors handle this.
	Scale uint64
	// NBodyScale is the cache scale for the N-body experiments. The
	// Barnes–Hut traversal footprint shrinks only logarithmically in n,
	// so N-body scales less aggressively than the dense kernels.
	NBodyScale uint64

	MatmulN    int
	PDEN       int
	PDEIters   int
	SORN       int
	SORIters   int
	SORStrip   int // 0 = derive from cache size
	NBodyN     int
	NBodySteps int

	// Table1Threads is the null-thread count for the overhead benchmark.
	Table1Threads int

	// serial, set only by this package's tests, feeds the hierarchy one
	// reference at a time through Recorder.Record instead of the
	// pipeline: the per-reference oracle the golden equivalence suites
	// compare the production path against. Stats, miss classification
	// and rendered tables are identical either way.
	serial bool
	// Parallel bounds how many independent simulations a table runs
	// concurrently; 0 or 1 is serial. Experiments share nothing but
	// their table sink and a buffer arena that hands out only zeroed
	// arrays and empty chunks, so any value is exact.
	Parallel int

	// arena, set only on the Config runJobs hands its jobs, recycles the
	// workload arrays and chunk buffers of one table's simulations. Nil
	// everywhere else: RunJob and RunNBodyThreadedTour allocate afresh.
	arena *jobArena

	// Obs, when non-nil, attaches the observability layer to every
	// simulation this Config runs: schedulers record their worker metrics
	// into it, pipelines their ring metrics, CPUs their reference counts,
	// and each harness job gets a wall-time histogram, a refs/sec gauge,
	// and a timeline span. Enabling it changes no simulation result (the
	// golden equivalence tests pin this).
	Obs *obs.Obs

	// Context, when non-nil, bounds every table this Config runs — and
	// every job inside it, mid-run: once the context is done, no further
	// simulation job starts, and running jobs cancel at their next
	// emission boundary (the CPU panics with a *sim.CancelledError, which
	// the per-job containment converts into an error; see RunJob). A
	// table rendered after cancellation covers only the jobs that
	// completed. Nil means run to completion.
	Context context.Context
}

// Scaled returns the default laptop-scale configuration: caches ÷16
// (N-body ÷16), matmul n=256 (paper 1024), PDE n=513 (paper 2049), SOR
// n=501 (paper 2005), N-body 8,000 bodies (paper 64,000). Every data:cache
// ratio matches the paper's.
func Scaled() Config {
	return Config{
		Scale:         16,
		NBodyScale:    16,
		MatmulN:       256,
		PDEN:          513,
		PDEIters:      5,
		SORN:          501,
		SORIters:      30,
		NBodyN:        8000,
		NBodySteps:    4,
		Table1Threads: 1 << 20,
	}
}

// Quick returns a further-reduced configuration used by the Go benchmark
// harness (bench_test.go), where each experiment may run several times:
// caches ÷64, matmul n=128, PDE n=257, SOR n=251, N-body 4,000 bodies.
func Quick() Config {
	return Config{
		Scale:         64,
		NBodyScale:    16,
		MatmulN:       128,
		PDEN:          257,
		PDEIters:      5,
		SORN:          251,
		SORIters:      10,
		NBodyN:        4000,
		NBodySteps:    2,
		Table1Threads: 1 << 17,
	}
}

// Full returns the paper's exact sizes. Simulating the matmul trace at
// n=1024 processes several billion references per variant; expect hours.
func Full() Config {
	return Config{
		Scale:         1,
		NBodyScale:    1,
		MatmulN:       1024,
		PDEN:          2049,
		PDEIters:      5,
		SORN:          2005,
		SORIters:      30,
		SORStrip:      18,
		NBodyN:        64000,
		NBodySteps:    4,
		Table1Threads: 1 << 20,
	}
}

// R8000 returns the scaled R8000 model for dense-kernel experiments.
func (c Config) R8000() machine.Machine { return machine.R8000().Scaled(c.Scale) }

// R10000 returns the scaled R10000 model.
func (c Config) R10000() machine.Machine { return machine.R10000().Scaled(c.Scale) }

// NBodyR8000 and NBodyR10000 return the N-body-scaled machines.
func (c Config) NBodyR8000() machine.Machine { return machine.R8000().Scaled(c.NBodyScale) }

// NBodyR10000 returns the N-body-scaled R10000 model.
func (c Config) NBodyR10000() machine.Machine { return machine.R10000().Scaled(c.NBodyScale) }

// SimResult is one traced run through one machine model.
type SimResult struct {
	Machine      machine.Machine
	Instructions uint64
	Summary      cache.Summary
	// Time is the cost-model estimate (the paper's crude analysis).
	Time time.Duration
	// Sched holds the last scheduler run's occupancy for threaded
	// variants (zero otherwise).
	Sched core.RunStats
}

// Seconds returns the modelled time in seconds.
func (r SimResult) Seconds() float64 { return r.Time.Seconds() }

// simulate runs one traced workload against one machine model: fn
// executes it on the CPU and address space it is handed and returns the
// scheduler it ran threads on, if any. The model CPU buffers references
// and hands each full buffer to a trace.Pipeline: the workload emits on
// the job's goroutine while the cache hierarchy consumes chunks on the
// pipeline's, behind a bounded SPSC ring (on a GOMAXPROCS=1 runtime the
// pipeline drains inline). With Config.Obs attached, the run acquires a
// metrics track of its own and reports its wall time (sim.wall_ns),
// reference throughput (sim.refs_per_sec), reference count (sim.refs,
// via the CPU) and, on the pipelined path, its ring metrics on it. None
// of it alters the reference stream.
func (c Config) simulate(m machine.Machine, fn func(*sim.CPU, *vm.AddressSpace) *core.Scheduler) SimResult {
	h := cache.MustNewHierarchy(m.Caches, nil)
	var rec trace.Recorder = h
	var pipe *trace.Pipeline
	track := c.Obs.AcquireTrack()
	f64s, refs := c.arena.lease()
	if !c.serial {
		pipe = trace.NewPipeline(h, 0, 0).Observe(c.Obs, track).WithBuffers(refs)
		if c.Context != nil {
			pipe.WithContext(c.Context)
		}
		rec = pipe
	}
	cpu := sim.NewCPU(rec).WithArena(f64s, refs).Observe(c.Obs, track)
	if c.Context != nil {
		// Mid-run cancellation: once the context is done, the CPU panics
		// with a *sim.CancelledError at its next emission boundary, and
		// the per-job containment (runJobContained) converts it into an
		// error instead of a completed-but-meaningless result.
		cpu.WithCancel(c.Context)
	}
	if pipe != nil {
		cpu.Buffer(0)
	}
	as := vm.NewAddressSpace()
	closed := false
	if pipe != nil {
		defer func() {
			if closed {
				return
			}
			// The job is unwinding — a thread panic or a cancellation —
			// without having closed the pipeline. Release the consumer
			// goroutine, or it parks on the ring forever: in a server
			// running thousands of jobs, every contained panic would leak
			// a goroutine and its chunk buffers. The bound keeps even a
			// consumer wedged inside the hierarchy from hanging the
			// unwind.
			ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
			defer stop()
			_ = pipe.CloseContext(ctx)
		}()
	}
	var start time.Time
	if c.Obs.Enabled() {
		start = time.Now()
	}
	sched := fn(cpu, as)
	cpu.Flush()
	if pipe != nil {
		closed = true
		// A consumer failure means the hierarchy missed references and
		// every number below is wrong; treat it like any other job panic
		// so runJobs contains it instead of rendering a corrupt table.
		// A cancelled pipeline reports the context error the same way.
		if err := pipe.Close(); err != nil {
			panic(err)
		}
	}
	// The workload has returned and the consumer has drained: no array or
	// chunk buffer of this job is touched again, so the table's next job
	// may reuse them. A job that unwinds instead leaves its slices to the
	// garbage collector, since a wedged consumer may still hold a chunk.
	f64s.Release()
	refs.Release()
	if c.Obs.Enabled() {
		wall := time.Since(start)
		reg := c.Obs.Registry()
		reg.Histogram("sim.wall_ns").Observe(track, uint64(wall))
		if secs := wall.Seconds(); secs > 0 {
			refs := h.Refs()
			reg.Gauge("sim.refs_per_sec").Set(track, uint64(float64(refs.Total())/secs))
		}
	}
	res := SimResult{
		Machine:      m,
		Instructions: cpu.Instructions,
		Summary:      h.Summarize(),
	}
	cm := machine.CostModel{Machine: m}
	res.Time = cm.Estimate3(res.Instructions, res.Summary.L1Misses,
		res.Summary.L2.Misses, res.Summary.L3.Misses)
	if sched != nil {
		res.Sched = sched.LastRun()
	}
	return res
}

// row is one simulation a table declares: the key the table reads its
// result under, and the spec that names the simulation.
type row struct {
	key  string
	spec JobSpec
}

// jobArena recycles the workload arrays and reference-chunk buffers of one
// runJobs call: each simulation leases from it, simulate hands the
// leased slices back when the job returns, and the arena is dropped with
// the table. Jobs in a row, or a pool's worth at a time, thereby reuse
// one set of buffers instead of each leaving its own as garbage.
type jobArena struct {
	f64s arena.Pool[float64]
	refs arena.Pool[trace.Ref]
}

// lease opens one job's leases; a nil arena gives nil leases, which
// allocate with make.
func (a *jobArena) lease() (*arena.Lease[float64], *arena.Lease[trace.Ref]) {
	if a == nil {
		return nil, nil
	}
	return a.f64s.Lease(), a.refs.Lease()
}

// JobPanicError is the panic value runJobs re-raises on its caller's
// goroutine when a simulation job panics. Without containment a panic in
// a parallel job would kill the process from an unrecoverable goroutine;
// with it, in-flight jobs quiesce first (queued ones are skipped) and the
// caller can recover a single typed value naming the job.
type JobPanicError struct {
	// Key and What identify the job within its table.
	Key  string
	What string
	// Value is the recovered panic value; a thread panic inside a
	// scheduler surfaces here as a *core.ThreadPanicError.
	Value any
	// Stack is the job goroutine's stack, captured at recovery.
	Stack []byte
}

// Error describes the panic and the job it happened in.
func (e *JobPanicError) Error() string {
	return fmt.Sprintf("harness: job %q (%s) panicked: %v", e.Key, e.What, e.Value)
}

// runJobs executes a table's simulations on min(Config.Parallel,
// len(rows)) workers (at least one, the calling goroutine), which take
// the rows in the order they are declared, and returns results keyed for
// rendering. Every row is resolved before the first job starts; a row
// that names no simulation is a broken table and panics at once. The
// jobs share nothing but a buffer arena scoped to this call (each builds
// its own hierarchy, CPU, and address space, and every array it leases
// comes back zeroed), so the result map — and every table rendered from
// it — is identical at any parallelism. A job panic quiesces the table
// (running jobs finish, queued ones are skipped) and then re-panics on
// the calling goroutine with a *JobPanicError; a done Config.Context
// stops new jobs from starting AND interrupts running ones
// mid-simulation (the CPU's cancellation panic classifies as a cancel,
// not a failure), returning the results gathered so far.
func (c Config) runJobs(prog Progress, rows []row) map[string]SimResult {
	jobs := make([]job, len(rows))
	for i, r := range rows {
		j, err := c.resolve(r.spec)
		if err != nil {
			panic(fmt.Sprintf("harness: row %q: %v", r.key, err))
		}
		jobs[i] = j
	}
	ctx := c.Context
	if ctx == nil {
		ctx = context.Background()
	}
	c.arena = new(jobArena)
	var (
		mu    sync.Mutex
		out   = make(map[string]SimResult, len(rows))
		next  int
		stop  bool
		first *JobPanicError
	)
	work := func() {
		for {
			mu.Lock()
			if stop || next == len(rows) || ctx.Err() != nil {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()
			r := rows[i]
			what := r.key + ": " + r.spec.What()
			prog.printf("%s", what)
			res, perr := contained(r.key, what, func() SimResult { return c.runJob(r.spec.Hook, what, jobs[i]) })
			mu.Lock()
			switch {
			case perr == nil:
				out[r.key] = res
			case cancelCause(perr.Value) != nil:
				// A cancellation unwinding as a panic is the context door
				// closing, not a job failure: drop the partial job and
				// start no other.
				stop = true
			default:
				stop = true
				if first == nil {
					first = perr
				}
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(c.Parallel, len(rows)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if first != nil {
		panic(first)
	}
	return out
}

// contained runs fn with its panic recovered into a *JobPanicError
// naming the job, so a blown-up simulation cannot take down sibling
// goroutines mid-table, nor a server's worker.
func contained[T any](key, what string, fn func() T) (v T, perr *JobPanicError) {
	defer func() {
		if r := recover(); r != nil {
			perr = &JobPanicError{Key: key, What: what, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(), nil
}

// runJob runs a spec's hook, if any, and then simulates j, wrapped — when
// Config.Obs is attached — in a timeline span named what and pprof
// labels, so a profile or Perfetto view of a parallel table shows which
// experiment each lane was busy with.
func (c Config) runJob(hook func(), what string, j job) SimResult {
	if hook != nil {
		hook()
	}
	if !c.Obs.Enabled() {
		return c.run(j)
	}
	tk := c.Obs.AcquireTrack()
	var r SimResult
	c.Obs.Labeled(tk, "job", func() {
		sp := c.Obs.Timeline().Begin(tk, what)
		r = c.run(j)
		sp.End()
	})
	return r
}

// Progress is an optional sink for per-run progress lines (nil to
// suppress); the CLI points it at stderr for the long sweeps. When
// Config.Parallel is above one, the sink is invoked from multiple
// goroutines and must be safe for concurrent use.
type Progress func(format string, args ...any)

func (p Progress) printf(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}
