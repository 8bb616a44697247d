package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"threadsched/internal/apps/matmul"
	"threadsched/internal/apps/sor"
	"threadsched/internal/cache"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// replayScale is the cache scale divisor the replays run at
// (tracesim -scale 16).
const replayScale = 16

// traceKernel is one replay trace: a traced kernel whose reference
// stream the benchmark writes with its own code.
type traceKernel struct {
	name string
	emit func(cpu *sim.CPU, as *vm.AddressSpace)
}

func traceKernels(sz sizes) []traceKernel {
	return []traceKernel{
		{"matmul", func(cpu *sim.CPU, as *vm.AddressSpace) {
			matmul.NewTraced(cpu, as, sz.TraceMatmulN).Interchanged()
		}},
		{"sor", func(cpu *sim.CPU, as *vm.AddressSpace) {
			th := sim.NewThreads(cpu, as, sor.ThreadedScheduler(sz.TraceSORHint))
			sor.NewTracedArray(cpu, as, sz.TraceSORN).Threaded(sz.TraceSORIters, th)
		}},
	}
}

// replayCaches is the hierarchy tracesim -scale 16 simulates.
func replayCaches() cache.HierarchyConfig { return machine.R8000().Scaled(replayScale).Caches }

// writeTrace runs the kernel with its references going to a trace file
// and, when h is not nil, to h as well. Under a live span the kernel's
// emission is a "sim.emit" span whose encoding and cache calls are folded
// child spans.
func writeTrace(path string, k traceKernel, h *cache.Hierarchy, t *tracer, parent *spanRef) (refs uint64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	em := t.begin(parent, "sim.emit")
	enc := newTimed(em, "trace.encode", w)
	var rec trace.Recorder = enc
	var hc *timed
	if h != nil {
		hc = newTimed(em, "cache.record", h)
		rec = trace.Tee{hc, enc}
	}
	cpu := sim.NewCPU(rec).Buffer(0)
	k.emit(cpu, vm.NewAddressSpace())
	cpu.Flush()
	err = w.Close()
	enc.close()
	if hc != nil {
		hc.close()
	}
	em.end(int64(w.Count()))
	if err != nil {
		return 0, err
	}
	return w.Count(), f.Close()
}

// runReplay writes the two traces (the set-up, repeated), computes their
// expected counters with an in-process serial replay, then replays them
// alternately with tracesim at its default path flags, checking every
// report.
func runReplay(e *env) (*runResult, error) {
	r := newResult("replay", e)
	kernels := traceKernels(e.size)
	paths := map[string]string{}
	refs := map[string]uint64{}
	var setup []float64
	for i := 0; i < e.size.SetupReps; i++ {
		start := time.Now()
		for _, k := range kernels {
			paths[k.name] = filepath.Join(e.tmp, k.name+".trace")
			n, err := writeTrace(paths[k.name], k, nil, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("writing the %s trace: %w", k.name, err)
			}
			refs[k.name] = n
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	want := map[string]map[string]uint64{}
	for _, k := range kernels {
		c, err := serialReplay(paths[k.name])
		if err != nil {
			return nil, err
		}
		want[k.name] = c
	}

	ts := filepath.Join(e.bin, "tracesim")
	walls := map[string][]float64{}
	peaks := map[string][]float64{}
	end := time.Now().Add(e.seconds)
	for pair := 0; pair < e.size.ReplayPairs || time.Now().Before(end); pair++ {
		order := kernels
		if e.rng.IntN(2) == 1 {
			order = []traceKernel{kernels[1], kernels[0]}
		}
		for _, k := range order {
			r.Attempted++
			p, err := runProgram(e.ctx, ts, "-scale", strconv.Itoa(replayScale), paths[k.name])
			if err != nil {
				if e.ctx.Err() != nil {
					return nil, err
				}
				r.fail("%s: %v", k.name, err)
				continue
			}
			if err := sameCounters(p.out, want[k.name]); err != nil {
				r.fail("%s: %v", k.name, err)
				continue
			}
			walls[k.name] = append(walls[k.name], p.wall.Seconds())
			peaks[k.name] = append(peaks[k.name], p.peakMB)
		}
	}
	if len(walls) < len(kernels) {
		return r, fmt.Errorf("%w: no valid replay of some trace", errFailed)
	}
	var total float64
	for _, n := range refs {
		total += float64(n)
	}
	pass := sumOfMedians(walls)
	r.Metrics["latency_ms"] = scale(pass, 1000)
	r.Metrics["throughput_per_s"] = inverse(pass, total)
	r.Metrics["peak_rss_mb"] = largestMedian(peaks)
	r.Metrics["setup_s"] = summarize(setup)
	r.Info["refs"] = total
	for k, xs := range walls {
		r.Samples["wall_s."+k] = xs
	}
	return r, nil
}

// serialReplay is the replay oracle: the streaming serial reader feeding
// one hierarchy, reported as tracesim reports it.
func serialReplay(path string) (map[string]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h, err := cache.NewHierarchy(replayCaches(), nil)
	if err != nil {
		return nil, err
	}
	err = trace.NewReader(bufio.NewReader(f)).ForEachBatch(0, func(refs []trace.Ref) error {
		h.RecordBatch(refs)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replaying %s: %w", path, err)
	}
	return counters(h), nil
}

// counters lists a hierarchy's counts under the names parseReport gives
// tracesim's report lines.
func counters(h *cache.Hierarchy) map[string]uint64 {
	refs := h.Refs()
	c := map[string]uint64{
		"refs.total": refs.Total(), "refs.ifetch": refs.IFetches(),
		"refs.load": refs.Loads(), "refs.store": refs.Stores(),
	}
	for _, lvl := range []*cache.Cache{h.L1I(), h.L1D(), h.L2()} {
		st, name := lvl.Stats(), lvl.Config().Name
		c[name+".accesses"], c[name+".misses"], c[name+".writebacks"] = st.Accesses, st.Misses, st.Writebacks
	}
	if h.L2().Config().Classify {
		st := h.L2().Stats()
		c["L2.compulsory"], c["L2.capacity"], c["L2.conflict"] = st.Compulsory, st.Capacity, st.Conflict
	}
	return c
}

// parseReport reads the counters of one tracesim report:
//
//	references: total N (ifetch N, load N, store N)
//	L1I  <config>  accesses N  misses N  rate R%  writebacks N
//	L2 miss classification: compulsory N, capacity N, conflict N
func parseReport(out []byte) (map[string]uint64, error) {
	c := map[string]uint64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(strings.NewReplacer(",", " ", "(", " ", ")", " ", ":", " ").Replace(line))
		if len(f) == 0 {
			continue
		}
		prefix := f[0] + "."
		switch {
		case f[0] == "references":
			prefix = "refs."
		case len(f) > 2 && f[1] == "miss" && f[2] == "classification":
		case strings.HasPrefix(f[0], "L"):
		default:
			continue
		}
		for i := 1; i+1 < len(f); i++ {
			switch f[i] {
			case "total", "ifetch", "load", "store", "accesses", "misses", "writebacks",
				"compulsory", "capacity", "conflict":
				v, err := strconv.ParseUint(f[i+1], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("report line %q: %v", line, err)
				}
				c[prefix+f[i]] = v
			}
		}
	}
	if _, ok := c["refs.total"]; !ok {
		return nil, fmt.Errorf("no references line in report %q", lastLine(string(out)))
	}
	return c, nil
}

// sameCounters checks a tracesim report against the oracle's counters.
func sameCounters(out []byte, want map[string]uint64) error {
	got, err := parseReport(out)
	if err != nil {
		return err
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return fmt.Errorf("counter %s = %d, oracle %d", k, g, w)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("report has %d counters, oracle %d", len(got), len(want))
	}
	return nil
}

// partReplay drives the replay path in-process for both traces: emission
// into the cache and the encoder, preload, sharded decode into the cache,
// serial decode alone, and address-sliced simulation.
func partReplay(e *env, t *tracer, r *runResult) error {
	for _, k := range traceKernels(e.size) {
		path := filepath.Join(e.tmp, k.name+".trace")
		root := t.begin(nil, "replay."+k.name)
		h, err := cache.NewHierarchy(replayCaches(), nil)
		if err != nil {
			return err
		}
		refs, err := writeTrace(path, k, h, t, root)
		if err != nil {
			return err
		}
		l2 := h.L2().Stats()
		t.sample("cache.l2_miss_ratio."+k.name, float64(l2.Misses)/float64(l2.Accesses))
		t.sample("sim.refs."+k.name, float64(refs))

		ld := t.begin(root, "trace.load")
		mf, err := trace.LoadFile(path)
		ld.end(int64(refs))
		if err != nil {
			return err
		}

		h2, err := cache.NewHierarchy(replayCaches(), nil)
		if err != nil {
			return err
		}
		dec := t.begin(root, "trace.decode")
		hc := newTimed(dec, "cache.record", h2)
		err = mf.ForEachBatch(e.workers, func(refs []trace.Ref) error {
			hc.RecordBatch(refs)
			return nil
		})
		hc.close()
		dec.end(int64(refs))
		if err != nil {
			return err
		}

		sd := t.begin(root, "trace.decode_serial")
		err = mf.Reader().ForEachBatch(0, func([]trace.Ref) error { return nil })
		sd.end(int64(refs))
		if err != nil {
			return err
		}

		sh, err := sim.NewShardedHierarchy(declassified(replayCaches()), e.workers)
		if err != nil {
			return err
		}
		sl := t.begin(root, "sim.sliced")
		err = sh.Replay(mf, e.workers)
		sl.end(int64(refs))
		root.end(int64(refs))
		if err != nil {
			return err
		}

		if got, want := counters(h2), counters(h); !equalCounters(got, want) {
			r.fail("%s: decoded replay counters %v, emitted %v", k.name, got, want)
		}
		if got := sh.Refs(); got.Total() != refs {
			r.fail("%s: sliced replay saw %d references, want %d", k.name, got.Total(), refs)
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return nil
}

func declassified(c cache.HierarchyConfig) cache.HierarchyConfig {
	c.L1I.Classify, c.L1D.Classify, c.L2.Classify = false, false, false
	return c
}

func equalCounters(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
