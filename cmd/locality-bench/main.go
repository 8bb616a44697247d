// Command locality-bench regenerates the paper's evaluation — Tables 1
// through 9 and Figure 4 — using the reproduction's simulator stack.
//
// Usage:
//
//	locality-bench [-exp all|table1..table9|figure4|ablations] [-size quick|scaled|full]
//	               [-mode pipeline|serial] [-parallel N]
//	               [-topology 32k:2,256k:8,8m:64] [-steal-chunk N]
//	               [-progress] [-list] [-json BENCH_CORE.json]
//	               [-simbench BENCH_SIM.json] [-appbench BENCH_APPS.json]
//	               [-replaybench BENCH_REPLAY.json]
//	               [-metrics metrics.json] [-timeline timeline.json]
//
// -json additionally writes a machine-readable record of the run — wall
// nanoseconds per experiment plus each table's attached metrics (bins
// used, threads per bin, host ns/thread), and (schema v2) a hierarchical
// dispatch sweep recording flat-vs-tree scheduler throughput with
// per-level steal counts — so the performance trajectory can be diffed
// across revisions.
//
// -topology threads a cache-hierarchy description (innermost level
// first, capacity:workers[:stealchunk] per level) into every scheduler:
// the simulated tables are single-worker and unchanged by it (the golden
// equivalence tests pin this), but the -json sweep and the -metrics
// snapshot then measure the hierarchical dispatcher under that shape
// instead of the default sweep topologies. -steal-chunk bounds how many
// bins one segment claim or narrow steal takes (0 keeps the scheduler
// default; per-level topology chunks override it).
//
// -parallel N runs each table's independent simulations on up to N
// concurrent workers. -mode selects the reference-stream path: pipeline
// (the default) emits references on the job's goroutine while the cache
// simulation consumes them on the pipeline's, draining inline when
// GOMAXPROCS is 1; serial is the per-reference equivalence oracle. Both
// modes and every parallelism level produce byte-identical tables (the
// golden equivalence tests in internal/harness enforce this). -mode batch,
// the name of a path since folded into the default, still runs the
// default path.
//
// -simbench skips the experiment tables and instead measures end-to-end
// simulation throughput (refs/sec) through each reference-stream path,
// writing the pipeline benchmark record (see results/README.md). Each
// stage reports its worker count; -simbench-reps selects the best-of
// repetition count.
//
// -replaybench measures trace-replay throughput: decode-only (the
// wire-speed ceiling) and decode-feeding-the-cache-hierarchy, through the
// streaming serial reader and the sharded zero-copy decoder at several
// worker counts, writing the replay benchmark record (see
// results/README.md). Every sharded replay is verified bit-identical to
// the serial replay before its throughput is reported.
//
// -metrics writes a merged JSON snapshot of the observability registry —
// per-worker steals, bins and threads run, segment drain times, pipeline
// ring depth and stalls, cache-sim wall time and refs/sec. -timeline
// writes a Chrome trace_event JSON worker timeline (one row per worker
// lane, spans for segment drains, pipeline drains, and harness jobs);
// load it in chrome://tracing or https://ui.perfetto.dev. Either flag
// attaches the observability layer; neither changes any table number
// (pinned by the harness equivalence tests).
//
// -appbench benchmarks the native application kernels (matmul, SOR, PDE,
// N-body) — pre-optimization vs optimized serial inner loops, and the
// threaded variants serial vs through the parallel scheduler at 1/2/4
// workers — writing the application benchmark record (see
// results/README.md).
//
// By default every experiment runs at the scaled geometry (caches ÷16,
// data sets shrunk to preserve the paper's data:cache ratios; see
// EXPERIMENTS.md). -size full uses the paper's exact problem sizes —
// expect multi-hour runs for the matmul tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"threadsched/internal/core"
	"threadsched/internal/harness"
	"threadsched/internal/obs"
	"threadsched/internal/tables"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1..table9, figure4, ablations (comma-separated)")
	size := flag.String("size", "scaled", "problem size: quick, scaled, or full (paper sizes; very slow)")
	progress := flag.Bool("progress", false, "print per-run progress to stderr")
	list := flag.Bool("list", false, "list experiments and exit")
	format := flag.String("format", "text", "output format: text or csv")
	jsonOut := flag.String("json", "", "also write a machine-readable benchmark record to this file (e.g. BENCH_CORE.json)")
	mode := flag.String("mode", "pipeline", "reference-stream path: pipeline or serial (bit-identical)")
	parallel := flag.Int("parallel", 1, "run up to N independent simulations per table concurrently")
	simbench := flag.String("simbench", "", "measure pipeline throughput instead of running experiments; write the record to this file (e.g. BENCH_SIM.json)")
	simbenchReps := flag.Int("simbench-reps", 3, "with -simbench: best-of repetition count per stage")
	baselineRPS := flag.Float64("baseline-rps", 0, "with -simbench: refs/sec of a pre-optimization build for the same workloads, recorded as the speedup baseline")
	baselineNote := flag.String("baseline-note", "", "with -simbench: provenance note for -baseline-rps")
	replaybench := flag.String("replaybench", "", "measure trace-replay throughput (serial vs sharded decode) instead of running experiments; write the record to this file (e.g. BENCH_REPLAY.json)")
	replaybenchReps := flag.Int("replaybench-reps", 3, "with -replaybench: best-of repetition count per stage")
	appbench := flag.String("appbench", "", "benchmark the native application kernels instead of running experiments; write the record to this file (e.g. BENCH_APPS.json)")
	appbenchReps := flag.Int("appbench-reps", 5, "with -appbench: best-of repetition count per measurement")
	metricsOut := flag.String("metrics", "", "write a merged scheduler/pipeline/sim metrics snapshot (JSON) to this file")
	timelineOut := flag.String("timeline", "", "write a Chrome trace_event worker timeline (JSON, for chrome://tracing or Perfetto) to this file")
	topology := flag.String("topology", "", "cache topology for hierarchical scheduling, innermost level first, e.g. 32k:2,256k:8,8m:64 (capacity:workers[:stealchunk] per level); empty or \"flat\" keeps the flat dispatch")
	stealChunk := flag.Int("steal-chunk", 0, "max bins per segment claim / narrow steal (0 = scheduler default; per-level topology chunks override)")
	flag.Parse()

	if *list {
		listExperiments()
		return
	}

	var cfg harness.Config
	switch *size {
	case "quick":
		cfg = harness.Quick()
	case "scaled":
		cfg = harness.Scaled()
	case "full":
		cfg = harness.Full()
		fmt.Fprintln(os.Stderr, "warning: full-size trace simulation processes billions of references; expect hours")
	default:
		fmt.Fprintf(os.Stderr, "unknown -size %q (want quick, scaled, or full)\n", *size)
		os.Exit(2)
	}
	var err error
	if cfg.Mode, err = harness.ParseMode(*mode); err != nil {
		fmt.Fprintf(os.Stderr, "bad -mode: %v\n", err)
		os.Exit(2)
	}
	cfg.Parallel = *parallel
	topo, err := core.ParseTopology(*topology)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -topology: %v\n", err)
		os.Exit(2)
	}
	cfg.Topology = topo

	// Interrupt (or SIGTERM) stops the run at the next job boundary: no
	// new simulation starts, completed tables have already rendered, and
	// the in-progress table renders the jobs that finished. A second
	// signal kills the process via Go's default handling.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	cfg.Context = ctx

	// The observability layer attaches when either output is requested:
	// one metrics track per parallel simulation lane plus room for the
	// pipeline-drain and job lanes AcquireTrack hands out.
	var o *obs.Obs
	if *metricsOut != "" || *timelineOut != "" {
		tracks := 2 * *parallel
		if tracks < 4 {
			tracks = 4
		}
		o = obs.New(tracks)
		if *timelineOut != "" {
			o.WithTimeline()
		}
		cfg.Obs = o
	}
	writeObs := func() {
		if err := writeObsFiles(o, *metricsOut, *timelineOut); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}

	var prog harness.Progress
	if *progress {
		var mu sync.Mutex
		prog = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(os.Stderr, "  [%s] %s\n", time.Now().Format("15:04:05"),
				fmt.Sprintf(format, args...))
		}
	}

	if *simbench != "" {
		if err := runSimBench(cfg, prog, *size, *simbench, *simbenchReps, *baselineRPS, *baselineNote); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
		writeObs()
		return
	}

	if *replaybench != "" {
		if err := runReplayBench(cfg, prog, *size, *replaybench, *replaybenchReps); err != nil {
			fmt.Fprintf(os.Stderr, "replaybench: %v\n", err)
			os.Exit(1)
		}
		writeObs()
		return
	}

	if *appbench != "" {
		if err := runAppBench(prog, *appbench, *appbenchReps); err != nil {
			fmt.Fprintf(os.Stderr, "appbench: %v\n", err)
			os.Exit(1)
		}
		writeObs()
		return
	}

	experiments := map[string]func() *tables.Table{
		"table1":    func() *tables.Table { return cfg.Table1() },
		"table2":    func() *tables.Table { return cfg.Table2(prog) },
		"table3":    func() *tables.Table { return cfg.Table3(prog) },
		"table4":    func() *tables.Table { return cfg.Table4(prog) },
		"table5":    func() *tables.Table { return cfg.Table5(prog) },
		"table6":    func() *tables.Table { return cfg.Table6(prog) },
		"table7":    func() *tables.Table { return cfg.Table7(prog) },
		"table8":    func() *tables.Table { return cfg.Table8(prog) },
		"table9":    func() *tables.Table { return cfg.Table9(prog) },
		"figure4":   func() *tables.Table { return cfg.Figure4(prog) },
		"ablations": func() *tables.Table { return cfg.Ablations(prog) },
		"modern":    func() *tables.Table { return cfg.Modern(prog) },
	}
	order := []string{"table1", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8", "table9", "figure4", "ablations", "modern"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(strings.ToLower(name))
			if _, ok := experiments[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", name)
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	if *format != "csv" {
		fmt.Printf("Thread Scheduling for Cache Locality (ASPLOS 1996) — reproduction harness\n")
		fmt.Printf("size=%s (cache scale ÷%d, N-body ÷%d)\n\n", *size, cfg.Scale, cfg.NBodyScale)
	}
	record := benchRecord{
		Schema: "threadsched/bench-core/v2",
		Date:   time.Now().UTC().Format(time.RFC3339),
		Size:   *size,
		Go:     runtime.Version(),
		CPUs:   runtime.NumCPU(),
	}
	for _, name := range selected {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "interrupted; skipping remaining experiments\n")
			break
		}
		start := time.Now()
		t := experiments[name]()
		wall := time.Since(start)
		if ctx.Err() != nil {
			t.AddNote("INTERRUPTED: partial results, rows may be missing")
		}
		t.AddNote("harness wall time: %v", wall.Round(time.Millisecond))
		switch *format {
		case "csv":
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			t.RenderCSV(os.Stdout)
			fmt.Println()
		default:
			t.Render(os.Stdout)
		}
		record.Experiments = append(record.Experiments, expRecord{
			Name:    name,
			ID:      t.ID,
			Title:   t.Title,
			WallNS:  wall.Nanoseconds(),
			Metrics: t.Metrics,
		})
	}
	if *jsonOut != "" {
		// The hierarchical dispatch sweep rides along with every record
		// (schema v2): flat vs tree threads/sec plus per-level steal counts.
		if ctx.Err() == nil {
			sweep, err := runTopoSweep(*size, *topology, *stealChunk, prog)
			if err != nil {
				fmt.Fprintf(os.Stderr, "topology sweep: %v\n", err)
				os.Exit(1)
			}
			record.TopologySweep = sweep
		}
		if err := writeRecord(*jsonOut, record); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiments)\n", *jsonOut, len(record.Experiments))
	}
	writeObs()
}

// writeObsFiles dumps the metrics snapshot and/or timeline collected by o;
// a nil o (neither flag given) writes nothing.
func writeObsFiles(o *obs.Obs, metricsPath, timelinePath string) error {
	if o == nil {
		return nil
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		err = o.Snapshot().WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %v", metricsPath, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", metricsPath)
	}
	if timelinePath != "" {
		f, err := os.Create(timelinePath)
		if err != nil {
			return err
		}
		err = o.Timeline().WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %v", timelinePath, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (load in chrome://tracing or https://ui.perfetto.dev)\n", timelinePath)
	}
	return nil
}

// benchRecord is the machine-readable run summary written by -json; its
// schema string versions the format so cross-PR tooling can diff runs.
type benchRecord struct {
	Schema      string      `json:"schema"`
	Date        string      `json:"date"`
	Size        string      `json:"size"`
	Go          string      `json:"go"`
	CPUs        int         `json:"cpus"`
	Experiments []expRecord `json:"experiments"`
	// TopologySweep (schema v2) is the hierarchical dispatch sweep: live
	// scheduler throughput flat vs bin-tree per topology and worker count,
	// with per-level steal counts. See cmd/locality-bench/treebench.go.
	TopologySweep []topoSweepEntry `json:"topology_sweep,omitempty"`
}

type expRecord struct {
	Name    string             `json:"name"`
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	WallNS  int64              `json:"wall_ns"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func writeRecord(path string, r benchRecord) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func listExperiments() {
	rows := []struct{ id, what string }{
		{"table1", "thread fork/run overhead (µs), modelled + live host measurement"},
		{"table2", "matrix multiply times: 5 variants × 2 machines"},
		{"table3", "matrix multiply references & classified cache misses (R8000)"},
		{"table4", "red-black PDE solver times: 3 variants × 2 machines"},
		{"table5", "PDE references & classified cache misses (R8000)"},
		{"table6", "SOR kernel times: 3 variants × 2 machines"},
		{"table7", "SOR references & classified cache misses (R8000)"},
		{"table8", "Barnes-Hut N-body times: 2 variants × 2 machines"},
		{"table9", "N-body references & classified cache misses (R8000)"},
		{"figure4", "execution time vs scheduler block size, all four workloads"},
		{"ablations", "design-choice experiments: bin tours, hint folding, page placement"},
		{"modern", "the 1996 technique on a modern 3-level prefetching core"},
	}
	for _, r := range rows {
		fmt.Printf("  %-8s %s\n", r.id, r.what)
	}
}
