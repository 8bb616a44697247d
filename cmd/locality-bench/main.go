// Command locality-bench regenerates the paper's evaluation — Tables 1
// through 9 and Figure 4 — using the reproduction's simulator stack.
//
// Usage:
//
//	locality-bench [-exp all|table1..table9|figure4|ablations|modern]
//	               [-size quick|scaled|full] [-format text|csv]
//	               [-progress] [-list]
//	               [-metrics metrics.json] [-timeline timeline.json]
//
// Each table runs its independent simulations on GOMAXPROCS workers,
// which take them in the order the table declares them and recycle one
// another's workload arrays and chunk buffers, so a table's memory stays
// near one job's; GOMAXPROCS=1 runs them one at a time. Within each
// simulation the workload emits references on the job's goroutine while
// the cache simulation consumes them on a pipeline's, draining inline
// when GOMAXPROCS is 1. Every worker count produces byte-identical tables
// (the golden tests in internal/harness check each experiment at one and
// two workers, and against a per-reference serial oracle that lives in
// those tests).
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
// Timing the program is the benchmark's job: bash benchmark/run.sh (see
// benchmark/README.md).
//
// By default every experiment runs at the scaled geometry (caches ÷16,
// data sets shrunk to preserve the paper's data:cache ratios; see
// EXPERIMENTS.md). -size full uses the paper's exact problem sizes —
// expect multi-hour runs for the matmul tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"threadsched/internal/harness"
	"threadsched/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, renders the selected experiments
// to stdout, and returns the process exit code — 2 for a usage error, 1
// for a failed write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("locality-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiments to run: all, or names from -list (comma-separated)")
	size := fs.String("size", "scaled", "problem size: quick, scaled, or full (paper sizes; very slow)")
	progress := fs.Bool("progress", false, "print per-run progress to stderr")
	list := fs.Bool("list", false, "list experiments and exit")
	format := fs.String("format", "text", "output format: text or csv")
	metricsOut := fs.String("metrics", "", "write a merged scheduler/pipeline/sim metrics snapshot (JSON) to this file")
	timelineOut := fs.String("timeline", "", "write a Chrome trace_event worker timeline (JSON, for chrome://tracing or Perfetto) to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		listExperiments(stdout)
		return 0
	}

	var cfg harness.Config
	switch *size {
	case "quick":
		cfg = harness.Quick()
	case "scaled":
		cfg = harness.Scaled()
	case "full":
		cfg = harness.Full()
		fmt.Fprintln(stderr, "warning: full-size trace simulation processes billions of references; expect hours")
	default:
		fmt.Fprintf(stderr, "unknown -size %q (want quick, scaled, or full)\n", *size)
		return 2
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(stderr, "unknown -format %q (want text or csv)\n", *format)
		return 2
	}
	cfg.Parallel = runtime.GOMAXPROCS(0)

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
		tracks := 2 * cfg.Parallel
		if tracks < 4 {
			tracks = 4
		}
		o = obs.New(tracks)
		if *timelineOut != "" {
			o.WithTimeline()
		}
		cfg.Obs = o
	}

	var prog harness.Progress
	if *progress {
		var mu sync.Mutex
		prog = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(stderr, "  [%s] %s\n", time.Now().Format("15:04:05"),
				fmt.Sprintf(format, args...))
		}
	}

	selected := harness.Experiments
	if *exp != "all" {
		selected = nil
		for _, name := range strings.Split(*exp, ",") {
			e, err := harness.LookupExperiment(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", strings.TrimSpace(name))
				return 2
			}
			selected = append(selected, e)
		}
	}

	if *format != "csv" {
		fmt.Fprintf(stdout, "Thread Scheduling for Cache Locality (ASPLOS 1996) — reproduction harness\n")
		fmt.Fprintf(stdout, "size=%s (cache scale ÷%d, N-body ÷%d)\n\n", *size, cfg.Scale, cfg.NBodyScale)
	}
	for _, e := range selected {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "interrupted; skipping remaining experiments\n")
			break
		}
		start := time.Now()
		t := e.Render(cfg, prog)
		wall := time.Since(start)
		if ctx.Err() != nil {
			t.AddNote("INTERRUPTED: partial results, rows may be missing")
		}
		t.AddNote("harness wall time: %v", wall.Round(time.Millisecond))
		switch *format {
		case "csv":
			fmt.Fprintf(stdout, "# %s: %s\n", t.ID, t.Title)
			t.RenderCSV(stdout)
			fmt.Fprintln(stdout)
		default:
			t.Render(stdout)
		}
	}
	if err := writeObsFiles(stderr, o, *metricsOut, *timelineOut); err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}
	return 0
}

// writeObsFiles dumps the metrics snapshot and/or timeline collected by o;
// a nil o (neither flag given) writes nothing.
func writeObsFiles(stderr io.Writer, o *obs.Obs, metricsPath, timelinePath string) error {
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
		fmt.Fprintf(stderr, "wrote %s\n", metricsPath)
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
		fmt.Fprintf(stderr, "wrote %s (load in chrome://tracing or https://ui.perfetto.dev)\n", timelinePath)
	}
	return nil
}

func listExperiments(w io.Writer) {
	for _, e := range harness.Experiments {
		fmt.Fprintf(w, "  %-8s %s\n", e.Name, e.What)
	}
}
