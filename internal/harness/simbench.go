package harness

import (
	"runtime"
	"time"
)

// StageResult is one pipeline stage's throughput measurement from SimBench.
type StageResult struct {
	// Stage names the reference-stream path measured: "serial",
	// "pipeline" (the default path), or "parallel" (the default path with
	// Config.Parallel workers).
	Stage string `json:"stage"`
	// Workers is the stage's concurrency: how many independent simulations
	// run at once. The single-stream stages are 1; the parallel stage runs
	// Config.Parallel workers (NumCPU by default).
	Workers int `json:"workers"`
	// Refs is the total number of references the cache hierarchies
	// observed across the stage's experiments.
	Refs uint64 `json:"refs"`
	// WallNS is the stage's best-of-reps wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// RefsPerSec is the end-to-end simulation throughput: references
	// generated *and* simulated per second of wall time.
	RefsPerSec float64 `json:"refs_per_sec"`
	// SpeedupVsSerial is RefsPerSec divided by the serial stage's.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// simBenchJobs is the fixed experiment set every SimBench stage runs, so
// refs/sec is comparable across stages: four independent traced workloads
// on the scaled R8000.
func (c Config) simBenchJobs() []simJob {
	m := c.R8000()
	return []simJob{
		{"matmul-interchanged", "simbench: matmul interchanged",
			func() SimResult { return c.RunMatmul(MatmulInterchanged, m) }},
		{"matmul-tiled", "simbench: matmul tiled",
			func() SimResult { return c.RunMatmul(MatmulTiledInterchanged, m) }},
		{"sor-untiled", "simbench: SOR untiled",
			func() SimResult { return c.RunSOR(SORUntiled, m) }},
		{"pde-regular", "simbench: PDE regular",
			func() SimResult { return c.RunPDE(PDERegular, m) }},
	}
}

// SimBench measures end-to-end simulation throughput (references per
// second, trace generation plus cache simulation) through each
// reference-stream path: the per-reference serial oracle, the default
// pipelined path, and the default path with the experiment pool running
// all workloads concurrently. Every stage runs the identical
// four-workload set and — by the exactness contract — observes the
// identical reference stream, so the refs counts agree and only wall time
// differs. Each stage runs reps times (minimum 1) and keeps the fastest
// observation, the standard estimator for a deterministic workload on a
// noisy host. The pipeline and parallel stages only pay off with spare
// cores: on a GOMAXPROCS=1 runtime the pipeline drains inline, and the
// parallel stage measures the pool's coordination overhead honestly.
func (c Config) SimBench(reps int, prog Progress) []StageResult {
	if reps < 1 {
		reps = 1
	}
	stages := []struct {
		name    string
		workers int
		cfg     Config
	}{
		{"serial", 1, func() Config { d := c; d.Mode = ModeSerial; d.Parallel = 1; return d }()},
		{"pipeline", 1, func() Config { d := c; d.Mode = ModePipelined; d.Parallel = 1; return d }()},
		{"parallel", 0, func() Config {
			d := c
			d.Mode = ModePipelined
			if d.Parallel <= 1 {
				d.Parallel = runtime.NumCPU()
			}
			return d
		}()},
	}
	var out []StageResult
	for _, s := range stages {
		if s.workers == 0 {
			s.workers = s.cfg.Parallel
		}
		var refs uint64
		best := int64(0)
		for r := 0; r < reps; r++ {
			prog.printf("simbench: stage %s (rep %d/%d)", s.name, r+1, reps)
			start := time.Now()
			res := s.cfg.runJobs(prog, s.cfg.simBenchJobs())
			wall := time.Since(start).Nanoseconds()
			refs = 0
			for _, jr := range res {
				refs += jr.Summary.IFetches + jr.Summary.DataRefs
			}
			if best == 0 || wall < best {
				best = wall
			}
		}
		sr := StageResult{
			Stage:      s.name,
			Workers:    s.workers,
			Refs:       refs,
			WallNS:     best,
			RefsPerSec: float64(refs) / (float64(best) / 1e9),
		}
		if len(out) > 0 {
			sr.SpeedupVsSerial = sr.RefsPerSec / out[0].RefsPerSec
		} else {
			sr.SpeedupVsSerial = 1
		}
		out = append(out, sr)
	}
	return out
}
