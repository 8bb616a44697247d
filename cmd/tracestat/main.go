// Command tracestat analyzes a binary address trace without simulating
// any particular cache: one Mattson stack-distance pass yields the
// fully-associative LRU miss-ratio curve for every capacity at once,
// plus footprint and reference-mix statistics. Useful for answering the
// paper's §4.5 question — how big can a scheduling block get before a
// given cache stops absorbing its working set — directly from a trace.
//
// One pass streams the trace, from a file or stdin, through
// trace.Reader a chunk at a time: it tallies every reference and feeds
// the selected ones to the stack-distance analyzer, so memory stays flat
// in the trace size. A damaged trace fails the pass with the reader's
// typed truncated or corrupt error.
//
// Usage:
//
//	tracestat [-line 128] [-kind all|data|ifetch] trace-file (or - for stdin)
//
// Produce traces with examples/tracegen or any trace.Writer.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"threadsched/internal/stackdist"
	"threadsched/internal/trace"
)

func main() {
	lineSize := flag.Uint64("line", 128, "cache line size in bytes (power of two)")
	kind := flag.String("kind", "data", "references to analyze: all, data, ifetch")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [flags] trace-file")
		flag.Usage()
		os.Exit(2)
	}
	if *lineSize == 0 || *lineSize&(*lineSize-1) != 0 {
		fatal("line size %d is not a power of two", *lineSize)
	}
	keep, err := kindFilter(*kind)
	if err != nil {
		fatal("%v", err)
	}

	in := io.Reader(os.Stdin)
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		in = f
	}
	counts, ana, err := analyze(in, *lineSize, keep)
	if err != nil {
		fatal("reading trace: %v", err)
	}

	fmt.Printf("trace: %d references (ifetch %d, load %d, store %d)\n",
		counts.Total(), counts.IFetches(), counts.Loads(), counts.Stores())
	fmt.Printf("analyzed (%s): %d refs, footprint %d lines = %s\n",
		*kind, ana.Refs(), ana.Distinct(), bytesStr(ana.Distinct()**lineSize))
	fmt.Printf("\nfully-associative LRU miss-ratio curve (line %dB):\n", *lineSize)
	fmt.Printf("  %12s  %12s  %8s\n", "capacity", "misses", "ratio")
	for _, p := range ana.Curve() {
		fmt.Printf("  %12s  %12d  %7.2f%%\n", bytesStr(p.CacheBytes), p.Misses, 100*p.Ratio)
	}
}

// analyze streams the trace in r a chunk at a time, tallying every
// reference and feeding those keep selects to a stack-distance analyzer
// of lineSize-byte lines.
func analyze(r io.Reader, lineSize uint64, keep func(trace.Ref) bool) (trace.Counts, *stackdist.Analyzer, error) {
	var counts trace.Counts
	ana := stackdist.New(lineSize)
	err := trace.NewReader(r).ForEachBatch(0, func(refs []trace.Ref) error {
		counts.RecordBatch(refs)
		for i := range refs {
			if keep(refs[i]) {
				ana.Record(refs[i])
			}
		}
		return nil
	})
	return counts, ana, err
}

func kindFilter(kind string) (func(trace.Ref) bool, error) {
	switch kind {
	case "all":
		return func(trace.Ref) bool { return true }, nil
	case "data":
		return func(r trace.Ref) bool { return r.Kind != trace.IFetch }, nil
	case "ifetch":
		return func(r trace.Ref) bool { return r.Kind == trace.IFetch }, nil
	default:
		return nil, fmt.Errorf("unknown -kind %q (want all, data, or ifetch)", kind)
	}
}

func bytesStr(b uint64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracestat: "+format+"\n", args...)
	os.Exit(1)
}
