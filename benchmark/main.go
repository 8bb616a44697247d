// Command benchmark is the repository's one benchmark. It runs four
// workloads against the user-facing entry points — cmd/locality-bench,
// cmd/tracesim, cmd/tracesimd and the library's parallel kernels — checks
// every output against an oracle, and prints each end-to-end metric by
// name and unit. With -trace 1 it instead drives the same work in-process
// through each layer's public functions, times those calls with spans of
// its own, and reports the per-layer metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash benchmark/run.sh -workload all                # one set, every workload
//	bash benchmark/run.sh -workload serve -seed 3      # one workload
//	bash benchmark/run.sh -workload replay -trace 1    # traced, per-layer
//	bash benchmark/run.sh -sets 2                      # two sets, checked against the bounds
//	bash benchmark/run.sh compare a1.json a2.json ... -- b1.json b2.json ...
//
// Workloads, metrics and their regression bounds are declared in
// BENCHMARK.json at the repository root; see benchmark/README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// metrics returns the metric list a run reports: per-layer when traced.
func (s benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// env is what a workload run needs: where to find the programs under
// test and put its files, its seeded inputs, and its time budget.
type env struct {
	ctx     context.Context
	bin     string // directory holding the built cmd binaries
	tmp     string // temporary directory for this run, removed at exit
	seed    uint64
	rng     *rand.Rand
	seconds time.Duration
	// workers is the host's processor count: the daemon's pool size,
	// the kernels' worker count and the load's connection bound.
	workers int
	size    sizes
	// digests are the expected sha256 digests of the rendered tables.
	digests map[string]string
}

// runResult is one workload run: its operation counts and its metrics.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	// Info holds figures reported for reading but not gated, such as
	// the serve workload's tail latency.
	Info map[string]float64 `json:"info,omitempty"`
	// Samples are the raw per-operation observations behind the
	// metrics, by item (a table, a trace, a job kind).
	Samples  map[string][]float64 `json:"samples,omitempty"`
	Failures []string             `json:"failures,omitempty"`
}

func newResult(workload string, e *env) *runResult {
	return &runResult{Workload: workload, Seed: e.seed, Metrics: map[string]summary{},
		Info: map[string]float64{}, Samples: map[string][]float64{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// header describes the host and settings a record was measured with.
type header struct {
	Host       string `json:"host"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Sets       int    `json:"sets"`
	Date       string `json:"date"`
}

// record is the JSON file one invocation writes.
type record struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

type workload struct {
	run  func(e *env) (*runResult, error)
	part part
}

var workloads = map[string]workload{
	"tables": {runTables, partTables},
	"replay": {runReplay, partReplay},
	"native": {runNative, partNative},
	"serve":  {runServe, partServe},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

func benchMain() int {
	var (
		name    = flag.String("workload", "all", "workload to run: tables, replay, native, serve, or all")
		seed    = flag.Uint64("seed", 1, "input seed; set s of -sets n uses seed+s")
		seconds = flag.Int("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "1 = traced in-process run reporting the per-layer metrics")
		sets    = flag.Int("sets", 1, "run every selected workload this many times and check that sets agree within the bounds")
		jsonOut = flag.String("json", "", "write the run record here (default .bench_build/records/<workload>-s<seed>-t<trace>.json)")
		spans   = flag.String("spans", "", "with -trace 1, write the spans here (default .bench_build/spans/<workload>-s<seed>.json)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if os.Getenv(childEnv) == "native" {
		return nativeChild(ctx)
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: run from the repository root: %v\n", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	var names []string
	if *name == "all" {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	} else {
		names = strings.Split(*name, ",")
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", n)
			return 2
		}
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}

	build := os.Getenv("BENCH_BUILD_DIR")
	if build == "" {
		build = ".bench_build"
	}
	hdr := header{
		Host: hostname(), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: gitCommit(), Seed: *seed, Seconds: *seconds,
		Sets: *sets, Date: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("# host=%s cpus=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%d sets=%d trace=%d\n",
		hdr.Host, hdr.CPUs, hdr.GOMAXPROCS, hdr.Go, hdr.Commit, hdr.Seed, hdr.Seconds, hdr.Sets, *traced)

	tmp, err := newTempDir(build)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(build, "bin")
	if *traced == 0 {
		if err := buildPrograms(ctx, ".", bin); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: building the programs under test: %v\n", err)
			return 1
		}
	}

	rec := record{Header: hdr}
	code := 0
	for s := 0; s < *sets; s++ {
		for _, n := range names {
			e, cancel, err := newEnv(ctx, tmp, bin, n, *seed+uint64(s), time.Duration(*seconds)*time.Second)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			var r *runResult
			if *traced == 1 {
				r, err = runTraced(e, n, spanPath(*spans, build, n, e.seed))
			} else {
				r, err = workloads[n].run(e)
			}
			cancel()
			os.RemoveAll(e.tmp)
			if err == nil {
				err = checkMetrics(r, spec.metrics(*traced == 1))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", n, err)
				if r != nil {
					for _, f := range r.Failures {
						fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED %s\n", n, f)
					}
				}
				return 1
			}
			r.Traced = *traced == 1
			rec.Runs = append(rec.Runs, r)
			printRun(r, spec.metrics(r.Traced))
			if r.Failed > 0 {
				code = 1
			}
		}
	}
	if *sets >= 2 && *traced == 0 && !setsAgree(rec.Runs, len(names), spec.EndToEnd) {
		code = 1
	}
	path := *jsonOut
	if path == "" {
		path = filepath.Join(build, "records", fmt.Sprintf("%s-s%d-t%d.json", *name, *seed, *traced))
	}
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: writing the record: %v\n", err)
		return 1
	}
	return code
}

// runLimit bounds one workload run, so that a stuck program under test
// fails the run instead of hanging it.
const runLimit = 150 * time.Second

// newEnv prepares one run of a workload at the benchmark's sizes, with
// its own temporary directory under tmp and the programs under test in bin.
func newEnv(ctx context.Context, tmp, bin, workload string, seed uint64, seconds time.Duration) (*env, context.CancelFunc, error) {
	dir, err := os.MkdirTemp(tmp, workload+"-")
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	return &env{
		ctx: ctx, bin: bin, tmp: dir, seed: seed, seconds: seconds,
		rng:     rand.New(rand.NewPCG(seed, 0x7468726561647363)),
		workers: runtime.NumCPU(), size: benchSizes, digests: tableDigests,
	}, cancel, nil
}

// checkMetrics requires that the run produced exactly the declared
// metrics, each a finite number.
func checkMetrics(r *runResult, want []metricSpec) error {
	for _, m := range want {
		s, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, s.Value)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("run produced %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
	}
	return nil
}

// printRun prints one line per metric, any failures, and last the
// one-line JSON result.
func printRun(r *runResult, specs []metricSpec) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]valueUnit{}}
	for _, m := range specs {
		s := r.Metrics[m.Name]
		fmt.Printf("%s %s %.6g %s (%.6g %.6g %d)\n", r.Workload, m.Name, s.Value, m.Unit, s.Q1, s.Q3, s.N)
		line.Metrics[m.Name] = valueUnit{s.Value, m.Unit}
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s info %s %.6g\n", r.Workload, k, r.Info[k])
	}
	for _, f := range r.Failures {
		fmt.Printf("%s FAILED %s\n", r.Workload, f)
	}
	data, _ := json.Marshal(line) // plain structs of numbers and strings
	fmt.Println(string(data))
}

// setsAgree compares the first two sets run by run and metric by metric:
// each must stay within its bound of the other.
func setsAgree(runs []*runResult, perSet int, specs []metricSpec) bool {
	ok := true
	for i := 0; i < perSet && perSet+i < len(runs); i++ {
		a, b := runs[i], runs[perSet+i]
		for _, m := range specs {
			x, y := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			gap := math.Abs(y-x) / math.Abs(x)
			verdict := "agree"
			if gap > m.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("sets %s %s %.6g vs %.6g gap %.1f%% bound %.0f%% %s\n",
				a.Workload, m.Name, x, y, 100*gap, 100*m.Bound, verdict)
		}
	}
	return ok
}

func spanPath(flagPath, build, workload string, seed uint64) string {
	if flagPath != "" {
		return flagPath
	}
	return filepath.Join(build, "spans", fmt.Sprintf("%s-s%d.json", workload, seed))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// newTempDir makes the invocation's temporary directory under the build
// directory, so traces and journals stay inside the checkout.
func newTempDir(build string) (string, error) {
	if err := os.MkdirAll(build, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(build, "tmp-")
}

// buildPrograms builds the three programs under test from the
// repository at root into bin, before any timing.
func buildPrograms(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/locality-bench", "./cmd/tracesim", "./cmd/tracesimd")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stderr, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%w\n%s", err, stderr.String())
	}
	return nil
}

// proc is one finished run of a program under test.
type proc struct {
	out    []byte
	wall   time.Duration
	peakMB float64
}

// runProgram runs a program to completion and reports its standard
// output, wall time, and peak resident set size.
func runProgram(ctx context.Context, path string, args ...string) (proc, error) {
	cmd := exec.CommandContext(ctx, path, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Start()
	if err == nil {
		w := watchPeak(cmd.Process.Pid)
		err = cmd.Wait()
		p := proc{out: stdout.Bytes(), wall: time.Since(start), peakMB: w.peakMB()}
		if err == nil {
			return p, nil
		}
	}
	return proc{}, fmt.Errorf("%s: %w: %s", filepath.Base(path), err, lastLine(stderr.String()))
}

// peakWatcher samples a running process's VmHWM, the peak resident set
// of its own address space, every few milliseconds. The maxrss of
// getrusage will not do: an exec'd child inherits its parent's peak.
type peakWatcher struct {
	stop, done chan struct{}
	kb         int64
}

func watchPeak(pid int) *peakWatcher {
	w := &peakWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/status", pid)
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			w.kb = max(w.kb, readHWM(path))
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// peakMB stops the sampling and returns the largest VmHWM seen, in MiB.
// Call it once the process has exited.
func (w *peakWatcher) peakMB() float64 {
	close(w.stop)
	<-w.done
	return float64(w.kb) / 1024
}

// readHWM reads VmHWM in KiB from a /proc status file, or 0 once the
// process is gone.
func readHWM(path string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			// A malformed line reads as 0, like a process that is gone.
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// errFailed marks a run that could not complete at all, as opposed to one
// whose operations were counted as failed.
var errFailed = errors.New("run failed")

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
