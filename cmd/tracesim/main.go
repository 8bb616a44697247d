// Command tracesim is a standalone trace-driven cache simulator in the
// mould of the modified DineroIII the paper used: it replays a binary
// address trace (the internal/trace format) through a two-level cache
// hierarchy and reports hit/miss counts with compulsory/capacity/conflict
// classification of the second-level misses in a single pass.
//
// Usage:
//
//	tracesim [-machine r8000|r10000] [-scale N] [-tlb entries]
//	         [-l1i size,line,assoc] [-l1d size,line,assoc] [-l2 size,line,assoc]
//	         [-pagesize N -placement identity|sequential|random|coloring]
//	         [-parallel N]
//	         [-metrics metrics.json] [-timeline timeline.json]
//	         trace-file... (or - for stdin)
//
// Multiple trace files replay through independent hierarchies built from
// the same configuration; -parallel N replays up to N of them
// concurrently. Reports print in argument order regardless of
// parallelism.
//
// Every input, file or stdin, streams: the replaying goroutine decodes
// whole verified chunks with trace.Reader.ReadBatch straight into the
// buffers of a trace.Pipeline and hands them over with Exchange, without
// copying, while the pipeline's goroutine drives the cache hierarchy. So
// decode overlaps simulation while the hierarchy still observes exact
// file order. Memory stays bounded by the pipeline's buffers and the
// reader's whatever the trace size; on a single-processor runtime the
// pipeline drains inline.
// The tests check every report against a per-reference serial replay.
//
// -metrics writes a JSON snapshot counting each replay's references
// (tracesim.refs, one track per input file), replay wall times and the
// pipeline's chunks, stalls, ring depth and drain times (pipe.*,
// producer metrics on the input's track);
// -timeline writes a Chrome trace_event JSON with one span per input,
// named after it, for eyeballing how -parallel replays overlapped.
//
// Generate traces with the trace package's Writer, e.g. from an
// instrumented workload (see examples/tracegen in the package docs).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"threadsched/internal/cache"
	"threadsched/internal/machine"
	"threadsched/internal/obs"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// simSetup is one replay's private simulator state: hierarchies and page
// tables are mutated per reference, so concurrent replays must not share
// them.
type simSetup struct {
	h          *cache.Hierarchy
	cfg        cache.HierarchyConfig
	pt         *vm.PageTable
	tlb        *vm.TLB // nil unless -tlb; its entry count is tlbEntries
	tlbEntries int
}

func main() {
	machName := flag.String("machine", "r8000", "base machine model: r8000 or r10000")
	scale := flag.Uint64("scale", 1, "cache scale divisor (power of two)")
	l1i := flag.String("l1i", "", "override L1I as size,line,assoc (bytes)")
	l1d := flag.String("l1d", "", "override L1D as size,line,assoc")
	l2 := flag.String("l2", "", "override L2 as size,line,assoc")
	pageSize := flag.Uint64("pagesize", 0, "simulate a physically indexed L2 with this page size")
	tlbEntries := flag.Int("tlb", 0, "simulate a fully-associative data TLB with this many entries")
	placement := flag.String("placement", "identity", "page placement: identity, sequential, random, coloring")
	parallel := flag.Int("parallel", 1, "replay up to N trace files concurrently")
	metricsOut := flag.String("metrics", "", "write per-input reference counts and replay times (JSON) to this file")
	timelineOut := flag.String("timeline", "", "write a Chrome trace_event replay timeline (JSON) to this file")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tracesim [flags] trace-file...")
		flag.Usage()
		os.Exit(2)
	}
	m, err := selectMachine(*machName, *scale)
	if err != nil {
		fatal("%v", err)
	}
	cfg := m.Caches
	for _, o := range []struct {
		spec string
		dst  *cache.Config
	}{{*l1i, &cfg.L1I}, {*l1d, &cfg.L1D}, {*l2, &cfg.L2}} {
		if o.spec == "" {
			continue
		}
		c, err := parseCache(o.spec, o.dst.Name, o.dst.Classify)
		if err != nil {
			fatal("%v", err)
		}
		*o.dst = c
	}

	newSetup := setupFunc(cfg, *pageSize, *placement, *tlbEntries)
	names := flag.Args()
	var o *obs.Obs
	tracks := make([]int, len(names))
	if *metricsOut != "" || *timelineOut != "" {
		// Two tracks per input: its own, acquired here in argument order
		// (so input i records on track i), and its pipeline's drain lane,
		// acquired when the replay starts.
		o = obs.New(2 * len(names))
		if *timelineOut != "" {
			o.WithTimeline()
		}
		for i := range tracks {
			tracks[i] = o.AcquireTrack()
		}
	}
	outs := make([]bytes.Buffer, len(names))
	errs := make([]error, len(names))
	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(names) {
		workers = len(names)
	}
	// Interrupt (or SIGTERM) cancels in-flight replays at their next
	// chunk and keeps queued ones from starting.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if errs[i] = ctx.Err(); errs[i] != nil {
				return
			}
			errs[i] = replay(ctx, &outs[i], name, len(names) > 1, newSetup, o, tracks[i])
		}(i, name)
	}
	wg.Wait()
	for i := range names {
		if errs[i] != nil {
			fatal("%s: %v", names[i], errs[i])
		}
		os.Stdout.Write(outs[i].Bytes())
	}
	if o != nil {
		if *metricsOut != "" {
			if err := writeFileWith(*metricsOut, func(w io.Writer) error {
				return o.Snapshot().WriteJSON(w)
			}); err != nil {
				fatal("writing %s: %v", *metricsOut, err)
			}
		}
		if *timelineOut != "" {
			if err := writeFileWith(*timelineOut, o.Timeline().WriteJSON); err != nil {
				fatal("writing %s: %v", *timelineOut, err)
			}
		}
	}
}

// setupFunc returns the builder of each input's simSetup: a fresh
// hierarchy on cfg, plus a page table of pageSize bytes placed by
// placement and a data TLB of tlbEntries entries when those are
// nonzero, so -parallel replays share nothing.
func setupFunc(cfg cache.HierarchyConfig, pageSize uint64, placement string, tlbEntries int) func() (*simSetup, error) {
	return func() (*simSetup, error) {
		s := &simSetup{cfg: cfg, tlbEntries: tlbEntries}
		if pageSize > 0 {
			var pol vm.Policy
			switch strings.ToLower(placement) {
			case "identity":
				pol = vm.IdentityPolicy{}
			case "sequential":
				pol = vm.SequentialPolicy{}
			case "random":
				pol = vm.RandomPolicy{Seed: 1}
			case "coloring":
				colors := cfg.L2.Size / uint64(max(1, cfg.L2.Assoc)) / pageSize
				pol = vm.ColoringPolicy{Colors: max64(1, colors)}
			default:
				return nil, fmt.Errorf("unknown placement %q", placement)
			}
			var err error
			s.pt, err = vm.NewPageTable(pageSize, pol)
			if err != nil {
				return nil, err
			}
		}
		h, err := cache.NewHierarchy(cfg, s.pt)
		if err != nil {
			return nil, fmt.Errorf("bad cache configuration: %v", err)
		}
		s.h = h
		if tlbEntries > 0 {
			pg := pageSize
			if pg == 0 {
				pg = vm.DefaultPageSize
			}
			s.tlb, err = vm.NewTLB(tlbEntries, 0, pg)
			if err != nil {
				return nil, err
			}
			h.AttachTLB(s.tlb)
		}
		return s, nil
	}
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replay decodes one trace through a fresh hierarchy and writes its report
// to w. Output is buffered per input so -parallel replays print in
// argument order. With o attached, the replay records its reference count
// and wall time on its own track, its pipeline's metrics alongside, and a
// timeline span named after the input.
func replay(ctx context.Context, w io.Writer, name string, labeled bool, newSetup func() (*simSetup, error), o *obs.Obs, track int) error {
	s, err := newSetup()
	if err != nil {
		return err
	}
	var start time.Time
	if o.Enabled() {
		o.Timeline().SetTrackName(track, name)
		start = time.Now()
	}
	sp := o.Timeline().Begin(track, name)
	var in io.Reader
	if name == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	// Decode on this goroutine, simulate on the pipeline's. Each batch is
	// decoded straight into a buffer the pipeline owns and handed over
	// whole by Exchange, which returns a drained one: no record is copied.
	// Close runs on every path: it releases the consumer goroutine, and on
	// success it is what makes the hierarchy's counters complete.
	pipe := trace.NewPipeline(s.h, 0, 0).WithContext(ctx).Observe(o, track)
	tr := trace.NewReader(in)
	buf := make([]trace.Ref, trace.DefaultChunk)
	for {
		if err = ctx.Err(); err != nil {
			break
		}
		n, rerr := tr.ReadBatch(buf[:cap(buf)])
		if n > 0 {
			buf = pipe.Exchange(buf[:n])
		}
		if rerr != nil {
			if rerr != io.EOF {
				err = rerr
			}
			break
		}
	}
	if cerr := pipe.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if err == ctx.Err() {
			return err
		}
		return fmt.Errorf("reading trace: %w", err)
	}
	sp.End()
	if o.Enabled() {
		refs := s.h.Refs()
		reg := o.Registry()
		reg.Counter("tracesim.refs").Add(track, refs.Total())
		reg.Histogram("tracesim.replay_ns").Observe(track, uint64(time.Since(start)))
	}
	if labeled {
		fmt.Fprintf(w, "== %s ==\n", name)
	}
	s.report(w)
	return nil
}

// report writes the replay's report: the hierarchy's, then the TLB's
// line when one is attached.
func (s *simSetup) report(w io.Writer) {
	report(w, s.h, s.cfg, s.pt)
	if s.tlb != nil {
		fmt.Fprintf(w, "dtlb: %d entries, %d accesses, %d misses, rate %.2f%%\n",
			s.tlbEntries, s.tlb.Accesses(), s.tlb.Misses(), s.tlb.MissRate())
	}
}

// selectMachine returns the named base machine model with its caches
// divided by scale (0 or 1 leaves them as they are). scale must be a
// power of two.
func selectMachine(name string, scale uint64) (machine.Machine, error) {
	var m machine.Machine
	switch strings.ToLower(name) {
	case "r8000":
		m = machine.R8000()
	case "r10000":
		m = machine.R10000()
	default:
		return m, fmt.Errorf("unknown machine %q", name)
	}
	if scale&(scale-1) != 0 {
		return m, fmt.Errorf("-scale %d is not a power of two", scale)
	}
	return m.Scaled(scale), nil
}

func parseCache(spec, name string, classify bool) (cache.Config, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return cache.Config{}, fmt.Errorf("cache spec %q: want size,line,assoc", spec)
	}
	var vals [3]uint64
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return cache.Config{}, fmt.Errorf("cache spec %q: %v", spec, err)
		}
		vals[i] = v
	}
	c := cache.Config{Name: name, Size: vals[0], LineSize: vals[1], Assoc: int(vals[2]), Classify: classify}
	return c, c.Validate()
}

func report(w io.Writer, h *cache.Hierarchy, cfg cache.HierarchyConfig, pt *vm.PageTable) {
	refs := h.Refs()
	fmt.Fprintf(w, "references: total %d (ifetch %d, load %d, store %d)\n",
		refs.Total(), refs.IFetches(), refs.Loads(), refs.Stores())
	for _, lvl := range []*cache.Cache{h.L1I(), h.L1D(), h.L2()} {
		st := lvl.Stats()
		fmt.Fprintf(w, "%-4s %-28s accesses %12d  misses %12d  rate %6.2f%%  writebacks %d\n",
			lvl.Config().Name, lvl.Config().String(), st.Accesses, st.Misses, st.MissRate(), st.Writebacks)
	}
	st := h.L2().Stats()
	if cfg.L2.Classify {
		fmt.Fprintf(w, "L2 miss classification: compulsory %d, capacity %d, conflict %d\n",
			st.Compulsory, st.Capacity, st.Conflict)
	}
	if pt != nil {
		fmt.Fprintf(w, "vm: policy %s, %d pages mapped, %d frame collisions\n",
			pt.PolicyName(), pt.Mapped(), pt.Collisions())
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracesim: "+format+"\n", args...)
	os.Exit(1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
