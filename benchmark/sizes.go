package main

// sizes fixes every input size of the four workloads. benchSizes is what
// the benchmark measures; the smoke test runs the same code at tiny
// sizes.
type sizes struct {
	// Tables are the locality-bench experiments the tables workload
	// renders, each by its own invocation at -size quick. Passes is the
	// least number of passes over them per run.
	Tables []string
	Passes int
	// SetupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	SetupReps int

	// The replay traces: interchanged matmul and the threaded SOR kernel
	// with its block hint. ReplayPairs is the least number of replays of
	// each trace per run.
	TraceMatmulN  int
	TraceSORN     int
	TraceSORIters int
	TraceSORHint  uint64
	ReplayPairs   int

	Native nativeSizes

	// The serve workload's open loop offers Rate jobs/s for OpenShare of
	// the run's seconds; its closed loop runs for ClosedShare of them.
	// WarmJobs go through the daemon before its restarts.
	WarmJobs    int
	Rate        float64
	OpenShare   float64
	ClosedShare float64

	// The traced run's layer probes: null threads per core probe,
	// records per journal probe, and jobs through the in-process server.
	CoreThreads    int
	JournalRecords int
	TracedJobs     int
}

// nativeSizes are the native workload's kernel sizes. MinRounds is the
// least number of timed rounds per run.
type nativeSizes struct {
	MatmulN   int `json:"matmul_n"`
	SORN      int `json:"sor_n"`
	SORIters  int `json:"sor_iters"`
	PDEN      int `json:"pde_n"`
	PDEIters  int `json:"pde_iters"`
	NBodyN    int `json:"nbody_n"`
	MinRounds int `json:"min_rounds"`
}

// benchSizes are the measured sizes. Every choice trades coverage for
// enough repetitions within run_seconds to report steady medians on a
// 2-CPU host:
//   - Tables: Table 1 is host-timed, and Table 2 (1.7 s), Table 8 (3.5 s)
//     and Figure 4 (7.5 s) would cut a 20 s run to one pass; the six
//     tables here take about 3.4 s per pass.
//   - Replay: about 16.5M and 8.6M references (66 MB and 30 MB), so a
//     trace replays in a few hundred milliseconds and the traces stress
//     the cache's miss path (matmul) and hit path (SOR) differently.
//   - Native: half the paper's matmul, SOR and PDE sizes and a quarter of
//     its bodies keep a round near 0.35 s and the inputs near 100 MB.
//   - Serve: 10 jobs/s is about a fifth of the ~50 jobs/s 2 workers
//     sustain on the four-job mix, so the open loop measures latency, not
//     backlog, even while a shared host runs the jobs at half speed.
var benchSizes = sizes{
	Tables:    []string{"table3", "table4", "table5", "table6", "table7", "table9"},
	Passes:    3,
	SetupReps: 5,

	TraceMatmulN:  160,
	TraceSORN:     351,
	TraceSORIters: 10,
	TraceSORHint:  128 << 10,
	ReplayPairs:   5,

	Native: nativeSizes{MatmulN: 512, SORN: 1001, SORIters: 30, PDEN: 1025, PDEIters: 5, NBodyN: 16000, MinRounds: 5},

	WarmJobs:    50,
	Rate:        10,
	OpenShare:   0.6,
	ClosedShare: 0.3,

	CoreThreads:    1 << 17,
	JournalRecords: 2000,
	TracedJobs:     40,
}
