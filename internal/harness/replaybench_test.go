package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"threadsched/internal/apps/matmul"
	"threadsched/internal/cache"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// ReplayBench carries its own differential check (every sharded replay's
// cache summary must match the serial replay's); running it at a tiny
// geometry exercises that check plus the full stage sweep in a few
// hundred milliseconds.
func TestReplayBenchDifferential(t *testing.T) {
	c := Quick()
	c.MatmulN = 64
	res, err := c.ReplayBench(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs == 0 {
		t.Fatal("empty replay trace")
	}
	if res.Chunks < 2 {
		t.Fatalf("replay trace has %d chunks; sharding needs at least 2", res.Chunks)
	}
	want := 1 + len(replayWorkers)
	if len(res.Decode) != want || len(res.EndToEnd) != want {
		t.Fatalf("got %d decode + %d end-to-end stages, want %d each",
			len(res.Decode), len(res.EndToEnd), want)
	}
	wantSliced := 1
	for _, w := range replayWorkers {
		if w >= 2 {
			wantSliced++
		}
	}
	if len(res.Sliced) != wantSliced {
		t.Fatalf("got %d sliced stages, want %d", len(res.Sliced), wantSliced)
	}
	for i, s := range res.Sliced {
		if i == 0 {
			continue // serial baseline
		}
		if s.Path != "sliced" || s.Slices < 2 {
			t.Errorf("sliced stage %d = %+v, want path=sliced with >=2 slices", i, s)
		}
	}
	for _, sweep := range [][]ReplayStage{res.Decode, res.EndToEnd, res.Sliced} {
		if sweep[0].Path != "serial" || sweep[0].Workers != 1 {
			t.Errorf("first stage %+v is not the serial baseline", sweep[0])
		}
		for _, s := range sweep {
			if s.WallNS <= 0 || s.RefsPerSec <= 0 || s.SpeedupVsSerial <= 0 {
				t.Errorf("stage %s w=%d has empty measurement: %+v", s.Path, s.Workers, s)
			}
		}
	}
}

// ReplayStage is one trace-replay throughput measurement from ReplayBench.
type ReplayStage struct {
	// Path names the decode path: "serial" (the streaming Reader),
	// "sharded" (the chunk-indexed MemFile decode), or "sliced" (sharded
	// decode fanning out to per-slice cache shards).
	Path string `json:"path"`
	// Workers is the sharded decode's worker count (1 for serial).
	Workers int `json:"workers"`
	// Slices is the address-slice count for "sliced" stages (0 otherwise).
	Slices int `json:"slices,omitempty"`
	// WallNS is the best-of-reps wall time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// RefsPerSec is decoded (or decoded-and-simulated) references per
	// second of wall time.
	RefsPerSec float64 `json:"refs_per_sec"`
	// SpeedupVsSerial is RefsPerSec divided by the serial stage's.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// ReplayResult is the full trace-replay benchmark: decode-only throughput
// (every byte checksummed, every record materialized, nothing consumed)
// and end-to-end replay throughput (decode feeding the R8000 cache
// hierarchy), each through the serial reader and the sharded decoder at
// several worker counts.
type ReplayResult struct {
	// Workload describes the traced workload the benchmark replays.
	Workload string `json:"workload"`
	// Refs is the trace's total reference count.
	Refs uint64 `json:"refs"`
	// TraceBytes is the encoded trace size.
	TraceBytes int `json:"trace_bytes"`
	// Chunks is the trace's chunk count (the sharding granularity).
	Chunks int `json:"chunks"`
	// Decode is the decode-only sweep; EndToEnd the replay-into-caches
	// sweep. The first stage of each is the serial baseline.
	Decode   []ReplayStage `json:"decode"`
	EndToEnd []ReplayStage `json:"end_to_end"`
	// Sliced is the address-sliced parallel-simulation sweep: sharded
	// decode fanning references into per-slice cache hierarchies that
	// simulate concurrently. It runs on the declassified hierarchy (miss
	// classification off — the shadow stack is global state slicing
	// cannot reproduce), so its serial baseline is its own first stage,
	// not EndToEnd's.
	Sliced []ReplayStage `json:"sliced,omitempty"`
}

// replayWorkers is the worker-count sweep the sharded stages run.
var replayWorkers = []int{1, 2, 4}

// replayTrace generates the benchmark's trace in memory: the interchanged
// matmul at the Config's geometry, encoded through the standard buffered
// CPU → Writer path, then indexed as a MemFile.
func (c Config) replayTrace() (*trace.MemFile, error) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	cpu := sim.NewCPU(w).Buffer(0)
	matmul.NewTraced(cpu, vm.NewAddressSpace(), c.MatmulN).Interchanged()
	cpu.Flush()
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("encoding replay trace: %w", err)
	}
	return trace.NewMemFile(buf.Bytes())
}

// bestOf runs fn reps times and returns the minimum wall time: the
// least-interrupted observation, the standard estimator for a
// deterministic workload on a noisy host.
func bestOf(reps int, fn func()) int64 {
	best := int64(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		d := time.Since(start).Nanoseconds()
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// bestOfErr is bestOf for fallible measurements: the first error wins and
// voids the timing.
func bestOfErr(reps int, fn func() error) (int64, error) {
	var err error
	best := bestOf(reps, func() {
		if e := fn(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return 0, err
	}
	return best, nil
}

// ReplayBench measures trace-replay throughput through the serial reader
// and the sharded decoder. Decode-only stages touch every record without
// consuming it (the wire-speed ceiling); end-to-end stages replay the
// trace into a fresh scaled-R8000 hierarchy per run, and every sharded
// replay's cache summary is checked bit-identical to the serial replay's —
// a throughput number from a diverging decode would be worthless. reps is
// the best-of repetition count per stage.
func (c Config) ReplayBench(reps int, prog Progress) (ReplayResult, error) {
	if reps < 1 {
		reps = 1
	}
	workload := fmt.Sprintf("matmul-interchanged n=%d", c.MatmulN)
	prog.printf("replaybench: generating trace (%s)", workload)
	f, err := c.replayTrace()
	if err != nil {
		return ReplayResult{}, err
	}
	res := ReplayResult{
		Workload:   workload,
		Refs:       f.Records(),
		TraceBytes: f.Size(),
		Chunks:     f.Chunks(),
	}

	stage := func(path string, workers, reps int, fn func() error) (ReplayStage, error) {
		wall, err := bestOfErr(reps, fn)
		if err != nil {
			return ReplayStage{}, fmt.Errorf("replaybench %s w=%d: %w", path, workers, err)
		}
		return ReplayStage{
			Path:       path,
			Workers:    workers,
			WallNS:     wall,
			RefsPerSec: float64(res.Refs) / (float64(wall) / 1e9),
		}, nil
	}
	finish := func(stages []ReplayStage) {
		for i := range stages {
			stages[i].SpeedupVsSerial = stages[i].RefsPerSec / stages[0].RefsPerSec
		}
	}

	// Decode-only sweep.
	prog.printf("replaybench: decode serial")
	s, err := stage("serial", 1, reps, func() error {
		return f.Reader().ForEachBatch(0, func([]trace.Ref) error { return nil })
	})
	if err != nil {
		return res, err
	}
	res.Decode = append(res.Decode, s)
	for _, w := range replayWorkers {
		prog.printf("replaybench: decode sharded w=%d", w)
		s, err := stage("sharded", w, reps, func() error {
			var counts trace.Counts
			err := f.ForEachBatch(w, func(refs []trace.Ref) error {
				counts.RecordBatch(refs)
				return nil
			})
			if err == nil && counts.Total() != res.Refs {
				err = fmt.Errorf("decoded %d refs, trace has %d", counts.Total(), res.Refs)
			}
			return err
		})
		if err != nil {
			return res, err
		}
		res.Decode = append(res.Decode, s)
	}
	finish(res.Decode)

	// End-to-end sweep: decode feeding the cache hierarchy. The serial
	// run's summary is the oracle for every sharded run.
	m := c.R8000()
	var oracle cache.Summary
	prog.printf("replaybench: end-to-end serial")
	s, err = stage("serial", 1, reps, func() error {
		h := cache.MustNewHierarchy(m.Caches, nil)
		if err := f.Reader().ForEachBatch(0, func(refs []trace.Ref) error {
			h.RecordBatch(refs)
			return nil
		}); err != nil {
			return err
		}
		oracle = h.Summarize()
		return nil
	})
	if err != nil {
		return res, err
	}
	res.EndToEnd = append(res.EndToEnd, s)
	for _, w := range replayWorkers {
		prog.printf("replaybench: end-to-end sharded w=%d", w)
		s, err := stage("sharded", w, reps, func() error {
			h := cache.MustNewHierarchy(m.Caches, nil)
			if err := f.ForEachBatch(w, func(refs []trace.Ref) error {
				h.RecordBatch(refs)
				return nil
			}); err != nil {
				return err
			}
			if got := h.Summarize(); got != oracle {
				return fmt.Errorf("sharded replay diverged from serial: %+v vs %+v", got, oracle)
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		res.EndToEnd = append(res.EndToEnd, s)
	}
	finish(res.EndToEnd)

	// Sliced sweep: parallel simulation, not just parallel decode. The
	// hierarchy must be declassified (and carries no page table or TLB),
	// so this sweep has its own serial oracle on the same configuration;
	// every sliced run is verified bit-identical against it.
	sliceCfg := m.Caches
	sliceCfg.L2.Classify = false
	var sliceOracle cache.Summary
	prog.printf("replaybench: sliced serial baseline")
	s, err = stage("serial", 1, reps, func() error {
		h := cache.MustNewHierarchy(sliceCfg, nil)
		if err := f.Reader().ForEachBatch(0, func(refs []trace.Ref) error {
			h.RecordBatch(refs)
			return nil
		}); err != nil {
			return err
		}
		sliceOracle = h.Summarize()
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Sliced = append(res.Sliced, s)
	for _, w := range replayWorkers {
		if w < 2 {
			continue // one slice is the serial baseline with extra steps
		}
		prog.printf("replaybench: sliced w=%d", w)
		sh, err := sim.NewShardedHierarchy(sliceCfg, w)
		if err != nil {
			return res, fmt.Errorf("replaybench sliced w=%d: %w", w, err)
		}
		s, err := stage("sliced", w, reps, func() error {
			if err := sh.Replay(f, w); err != nil {
				return err
			}
			if got := sh.Summarize(); got != sliceOracle {
				return fmt.Errorf("sliced replay diverged from serial: %+v vs %+v", got, sliceOracle)
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		s.Slices = sh.Slices()
		res.Sliced = append(res.Sliced, s)
	}
	finish(res.Sliced)
	return res, nil
}
