package harness

import (
	"os"
	"runtime"
	"testing"
)

// TestGuardPipelineThroughput is the regression tripwire for the
// reference-stream path: the default pipelined stage must keep its margin
// over the serial per-reference oracle. With a spare core the pipeline
// overlaps emission with cache simulation, and it stays the one
// production path only while it beats serial by at least 10% there; on
// one CPU (or at GOMAXPROCS=1) it drains inline and must merely not fall
// below serial. The pipeline once shipped at 0.82x of serial
// (double-copying chunks through a churning sync.Pool); this guard exists
// so that class of regression fails a build loudly instead of surfacing
// months later in a benchmark record.
//
// It measures real throughput, so it is opt-in: set GUARD_PIPELINE=1
// (make guard-pipeline) to run it on a quiet host. The 1-CPU floor's 5%
// allowance absorbs scheduler noise that best-of-3 at the quick geometry
// does not.
func TestGuardPipelineThroughput(t *testing.T) {
	if os.Getenv("GUARD_PIPELINE") == "" {
		t.Skip("set GUARD_PIPELINE=1 to run the pipeline-vs-serial throughput guard")
	}
	floor := 0.95
	if runtime.NumCPU() >= 2 && runtime.GOMAXPROCS(0) >= 2 {
		floor = 1.10
	}
	stages := Quick().SimBench(3, nil)
	byName := make(map[string]StageResult, len(stages))
	for _, s := range stages {
		byName[s.Stage] = s
	}
	serial, ok := byName["serial"]
	if !ok || serial.RefsPerSec <= 0 {
		t.Fatalf("no serial baseline in %+v", stages)
	}
	pipe, ok := byName["pipeline"]
	if !ok {
		t.Fatalf("stage %q missing from SimBench", "pipeline")
	}
	ratio := pipe.RefsPerSec / serial.RefsPerSec
	t.Logf("pipeline %12.0f refs/sec (%.2fx vs serial %.0f; floor %.2fx at %d CPUs, GOMAXPROCS %d)",
		pipe.RefsPerSec, ratio, serial.RefsPerSec, floor, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if ratio < floor {
		t.Errorf("pipeline path runs at %.2fx of serial (%.0f vs %.0f refs/sec), below the %.2fx floor: the hand-off has regressed",
			ratio, pipe.RefsPerSec, serial.RefsPerSec, floor)
	}
}

// TestGuardReplayThroughput is the tripwire for the address-sliced
// parallel simulation: at two or more workers, sliced end-to-end replay
// must not fall below its serial baseline — the point of slicing is that
// the simulation itself scales, and a regression in the scatter or queue
// hand-off would silently erase that.
//
// Parallel consumption cannot beat serial wall-clock on a single core
// (the scatter is added work), so the guard skips there; the results
// README records the same caveat for the committed BENCH_REPLAY numbers.
// Like the pipeline guard it measures real throughput and is opt-in: set
// GUARD_REPLAY=1 (make guard-replay) on a quiet multicore host. The 5%
// allowance absorbs scheduler noise.
func TestGuardReplayThroughput(t *testing.T) {
	if os.Getenv("GUARD_REPLAY") == "" {
		t.Skip("set GUARD_REPLAY=1 to run the sliced-vs-serial replay throughput guard")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("host has %d CPU; sliced replay cannot beat serial without parallelism", runtime.NumCPU())
	}
	c := Scaled()
	c.MatmulN = 128 // full geometry, reduced trace: measurement, not a soak
	res, err := c.ReplayBench(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sliced) < 2 {
		t.Fatalf("sliced sweep has %d stages, want serial + at least one sliced", len(res.Sliced))
	}
	serial := res.Sliced[0]
	for _, s := range res.Sliced[1:] {
		t.Logf("sliced w=%d s=%d %12.0f refs/sec (%.2fx vs serial %.0f)",
			s.Workers, s.Slices, s.RefsPerSec, s.SpeedupVsSerial, serial.RefsPerSec)
		if s.Workers >= 2 && s.SpeedupVsSerial < 0.95 {
			t.Errorf("sliced replay at %d workers runs at %.2fx of serial (%.0f vs %.0f refs/sec): the fan-out has regressed",
				s.Workers, s.SpeedupVsSerial, s.RefsPerSec, serial.RefsPerSec)
		}
	}
}
