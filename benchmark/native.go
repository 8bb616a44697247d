package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"time"

	"threadsched/internal/apps/matmul"
	"threadsched/internal/apps/nbody"
	"threadsched/internal/apps/pde"
	"threadsched/internal/apps/sor"
	"threadsched/internal/core"
	"threadsched/internal/obs"
)

// nativeL2 is the cache size every kernel's scheduler bins for (the
// 2 MiB L2 the application benchmarks share).
const nativeL2 = 2 << 20

// childEnv selects the native child mode; a test binary honors it too.
const childEnv = "BENCH_CHILD"

// nativeRequest is what the native workload sends its child on stdin.
type nativeRequest struct {
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Workers   int         `json:"workers"`
	SetupReps int         `json:"setup_reps"`
	Sizes     nativeSizes `json:"sizes"`
}

// nativeReport is what the child prints on stdout.
type nativeReport struct {
	SetupS     []float64            `json:"setup_s"`
	RoundS     []float64            `json:"round_s"`
	KernelS    map[string][]float64 `json:"kernel_s"`
	Attempted  int                  `json:"attempted"`
	Mismatches []string             `json:"mismatches,omitempty"`
	PeakMB     float64              `json:"peak_mb"`
}

// runNative runs the kernels in a child process, so that its peak RSS is
// the kernels' own, and reads back its timings and that peak.
func runNative(e *env) (*runResult, error) {
	r := newResult("native", e)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	req, err := json.Marshal(nativeRequest{Seed: e.seed, Seconds: e.seconds.Seconds(), Workers: e.workers,
		SetupReps: e.size.SetupReps, Sizes: e.size.Native})
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(e.ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"=native")
	cmd.Stdin = bytes.NewReader(req)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("native child: %w: %s", err, lastLine(stderr.String()))
	}
	var rep nativeReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("native child report: %w", err)
	}
	r.Attempted = rep.Attempted
	for _, m := range rep.Mismatches {
		r.fail("%s", m)
	}
	if len(rep.RoundS) == 0 {
		return r, fmt.Errorf("%w: no timed round", errFailed)
	}
	round := summarize(rep.RoundS)
	r.Metrics["latency_ms"] = scale(round, 1000)
	r.Metrics["throughput_per_s"] = inverse(round, 1)
	r.Metrics["peak_rss_mb"] = one(rep.PeakMB)
	r.Metrics["setup_s"] = summarize(rep.SetupS)
	r.Samples["round_s"] = rep.RoundS
	for k, xs := range rep.KernelS {
		r.Samples["kernel_s."+k] = xs
	}
	return r, nil
}

// nativeChild is the native workload's child process: set-up repeated,
// one serial-scheduler round as the oracle, one warm-up round, then timed
// rounds for the requested seconds, each checked against the oracle.
func nativeChild(ctx context.Context) int {
	var req nativeRequest
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		fmt.Fprintf(os.Stderr, "native child: reading request: %v\n", err)
		return 2
	}
	rep, err := nativeRounds(ctx, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "native child: %v\n", err)
		return 1
	}
	rep.PeakMB = float64(readHWM("/proc/self/status")) / 1024
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

func nativeRounds(ctx context.Context, req nativeRequest) (*nativeReport, error) {
	rep := &nativeReport{KernelS: map[string][]float64{}}
	var k *kernels
	for i := 0; i < max(req.SetupReps, 1); i++ {
		k = nil // each set-up allocates afresh, not into the last one's memory
		runtime.GC()
		start := time.Now()
		k = newKernels(req.Sizes, req.Seed)
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
	}

	serial := serialSchedulers()
	k.refill()
	if err := k.run(serial, nil, nil, "", nil); err != nil {
		return nil, err
	}
	serial.close()
	want := k.outputs()

	par := parallelSchedulers(req.Workers)
	defer par.close()
	end := time.Now().Add(time.Duration(req.Seconds * float64(time.Second)))
	for round := 0; round <= req.Sizes.MinRounds || time.Now().Before(end); round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k.refill()
		times := map[string]float64{}
		start := time.Now()
		if err := k.run(par, nil, nil, "", times); err != nil {
			return nil, err
		}
		d := time.Since(start)
		// Collect each round's garbage outside the timing, so that the
		// heap, and so the peak RSS, does not grow with the round count.
		runtime.GC()
		rep.Attempted++
		if msg := k.compare(want); msg != "" {
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("round %d: %s", round, msg))
			continue
		}
		if round == 0 {
			continue // warm-up: the first round pays for page faults and pool start-up
		}
		rep.RoundS = append(rep.RoundS, d.Seconds())
		for name, s := range times {
			rep.KernelS[name] = append(rep.KernelS[name], s)
		}
	}
	return rep, nil
}

// kernels holds the native kernels' pristine inputs and working copies.
type kernels struct {
	sz          nativeSizes
	a0, b0      []float64 // matmul inputs; Threaded transposes A in place
	a, b, c     []float64
	sor0, sorA  []float64
	grid0, grid *pde.Grid
	sys0, sys   *nbody.System
	tree        *nbody.Tree
}

// newKernels allocates every input and fills it from the seed.
func newKernels(sz nativeSizes, seed uint64) *kernels {
	rng := rand.New(rand.NewPCG(seed, 0x6e6174697665))
	fill := func(xs []float64) []float64 {
		for i := range xs {
			xs[i] = rng.Float64()
		}
		return xs
	}
	mm := sz.MatmulN * sz.MatmulN
	k := &kernels{
		sz: sz,
		a0: fill(make([]float64, mm)), b0: fill(make([]float64, mm)),
		a: make([]float64, mm), b: make([]float64, mm), c: make([]float64, mm),
		sor0: fill(sor.NewArray(sz.SORN)), sorA: make([]float64, sz.SORN*sz.SORN),
		grid0: pde.NewGrid(sz.PDEN),
		sys0:  nbody.NewSystem(sz.NBodyN, seed),
		tree:  &nbody.Tree{},
	}
	fill(k.grid0.U)
	fill(k.grid0.B)
	k.grid = k.grid0.Clone()
	k.sys = k.sys0.Clone()
	return k
}

// refill restores every working input from its pristine copy.
func (k *kernels) refill() {
	copy(k.a, k.a0)
	copy(k.b, k.b0)
	clear(k.c)
	copy(k.sorA, k.sor0)
	copy(k.grid.U, k.grid0.U)
	copy(k.grid.B, k.grid0.B)
	copy(k.grid.R, k.grid0.R)
	copy(k.sys.Bodies, k.sys0.Bodies)
}

// schedulers is one scheduler per kernel.
type schedulers struct {
	matmul, nbody *core.Scheduler
	sor, pde      *core.DepScheduler
}

func parallelSchedulers(workers int) schedulers {
	return schedulers{
		matmul: matmul.ParallelScheduler(nativeL2, workers),
		nbody:  nbody.ParallelScheduler(nativeL2, workers),
		sor:    sor.ParallelScheduler(nativeL2, workers),
		pde:    pde.ParallelScheduler(nativeL2, workers),
	}
}

// serialSchedulers are the oracle's: each kernel's single-worker
// scheduler.
func serialSchedulers() schedulers {
	return schedulers{
		matmul: matmul.ThreadedScheduler(nativeL2),
		nbody:  nbody.ThreadedScheduler(nativeL2),
		sor:    sor.ParallelScheduler(nativeL2, 1),
		pde:    pde.ParallelScheduler(nativeL2, 1),
	}
}

func (s schedulers) close() {
	s.matmul.Close()
	s.nbody.Close()
	s.sor.Close()
	s.pde.Close()
}

// kernelNames is the order kernels run in.
var kernelNames = []string{"matmul", "sor", "pde", "nbody"}

// run runs the four kernels once. Under a live parent each kernel call
// is an "apps.<kernel><suffix>" span; times, when not nil, receives each
// kernel's seconds.
func (k *kernels) run(s schedulers, t *tracer, parent *spanRef, suffix string, times map[string]float64) error {
	for _, name := range kernelNames {
		sp := t.begin(parent, "apps."+name+suffix)
		start := time.Now()
		var err error
		switch name {
		case "matmul":
			matmul.Threaded(k.c, k.a, k.b, k.sz.MatmulN, s.matmul)
		case "sor":
			err = sor.ThreadedExact(k.sorA, k.sz.SORN, k.sz.SORIters, s.sor)
		case "pde":
			err = pde.ThreadedExact(k.grid, k.sz.PDEIters, s.pde)
		case "nbody":
			nbody.StepThreadedReuse(k.sys, k.tree, s.nbody, nil)
		}
		d := time.Since(start)
		sp.end(0)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if times != nil {
			times[name] = d.Seconds()
		}
	}
	return nil
}

// nativeOutputs is a copy of every kernel's output.
type nativeOutputs struct {
	c, sor, u, r []float64
	bodies       []nbody.Body
}

func (k *kernels) outputs() nativeOutputs {
	return nativeOutputs{
		c: clone(k.c), sor: clone(k.sorA), u: clone(k.grid.U), r: clone(k.grid.R),
		bodies: append([]nbody.Body(nil), k.sys.Bodies...),
	}
}

// compare describes the first output that is not bit-identical to want,
// or returns "".
func (k *kernels) compare(want nativeOutputs) string {
	for _, o := range []struct {
		name      string
		got, want []float64
	}{{"matmul C", k.c, want.c}, {"sor A", k.sorA, want.sor}, {"pde U", k.grid.U, want.u}, {"pde R", k.grid.R, want.r}} {
		if i := firstDiff(o.got, o.want); i >= 0 {
			return fmt.Sprintf("%s[%d] = %v, serial scheduler %v", o.name, i, o.got[i], o.want[i])
		}
	}
	for i := range want.bodies {
		if k.sys.Bodies[i] != want.bodies[i] {
			return fmt.Sprintf("nbody body %d = %+v, serial scheduler %+v", i, k.sys.Bodies[i], want.bodies[i])
		}
	}
	return ""
}

// firstDiff is the first index where a and b differ bitwise, or -1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func clone(xs []float64) []float64 { return append([]float64(nil), xs...) }

// partNative drives the scheduler and the kernels in-process: null
// threads through the core scheduler at one and at nproc workers, then
// the four kernels on the serial and on the parallel schedulers, checked
// against each other.
func partNative(e *env, t *tracer, r *runResult) error {
	for i := 0; i < 3; i++ {
		coreProbe(t, 1, e.size.CoreThreads)
		coreProbe(t, e.workers, e.size.CoreThreads)
	}
	k := newKernels(e.size.Native, e.seed)
	serial := serialSchedulers()
	defer serial.close()
	k.refill()
	root := t.begin(nil, "apps.serial")
	err := k.run(serial, t, root, ".serial", nil)
	root.end(0)
	if err != nil {
		return err
	}
	want := k.outputs()
	par := parallelSchedulers(e.workers)
	defer par.close()
	k.refill()
	root = t.begin(nil, "apps.parallel")
	err = k.run(par, t, root, "", nil)
	root.end(0)
	if err != nil {
		return err
	}
	if msg := k.compare(want); msg != "" {
		r.fail("%s", msg)
	}
	return nil
}

// coreProbe forks threads null threads with hints spread over 16×16
// blocks, then runs them, timing fork and run. At more than one worker
// it also reads the run's steal count from the scheduler's snapshot.
func coreProbe(t *tracer, workers, threads int) {
	cfg := core.Config{CacheSize: nativeL2, Workers: workers}
	prefix := "core."
	if workers > 1 {
		cfg.Obs = obs.New(workers)
		prefix = "core.par_"
	}
	s := core.New(cfg)
	defer s.Close()
	null := func(int, int) {}
	const line = 64
	span := uint64(threads) * line
	root := t.begin(nil, "core.null_threads")
	f := t.begin(root, prefix+"fork")
	for i := 0; i < threads; i++ {
		h1 := uint64(i) * line
		h2 := uint64(i) * 4099 * line % span
		s.Fork(null, i, 0, h1, h2, 0)
	}
	f.end(int64(threads))
	rn := t.begin(root, prefix+"run")
	s.Run(false)
	rn.end(int64(threads))
	root.end(int64(threads))
	if cfg.Obs != nil {
		var steals uint64
		for _, c := range s.Snapshot().Counters {
			if c.Name == "sched.steals" {
				steals = c.Total
			}
		}
		t.sample("core.steals", float64(steals))
	}
}
