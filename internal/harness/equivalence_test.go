package harness

import (
	"runtime"
	"strings"
	"testing"
)

// eqConfig is a reduced geometry for the golden equivalence suite: large
// enough that every app schedules real thread batches and takes all three
// miss classes, small enough that the full serial/inline/ring/parallel
// matrix — which this suite runs many times, including under -race —
// stays in test-suite time.
func eqConfig() Config {
	return Config{
		Scale:         64,
		NBodyScale:    16,
		MatmulN:       64,
		PDEN:          129,
		PDEIters:      3,
		SORN:          125,
		SORIters:      6,
		NBodyN:        1000,
		NBodySteps:    1,
		Table1Threads: 1 << 10,
	}
}

// eqModes is the reference-stream matrix every equivalence test sweeps:
// the serial per-reference path is the golden baseline.
var eqModes = []Mode{ModeSerial, ModePipelined}

// withProcs runs fn with GOMAXPROCS pinned to n, then restores it. The
// pipeline picks its inline or ring hand-off from GOMAXPROCS when it is
// built, and GOMAXPROCS is process-global: call this only outside
// t.Parallel tests, or a concurrent test would see the pinned value.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// requireSameResult asserts bit-identical simulation output: reference
// tallies, per-level stats including the L2 miss classification, the
// modelled time, and the scheduler occupancy.
func requireSameResult(t *testing.T, label string, want, got SimResult) {
	t.Helper()
	if got.Instructions != want.Instructions {
		t.Errorf("%s: instructions %d, want %d", label, got.Instructions, want.Instructions)
	}
	if got.Summary != want.Summary {
		t.Errorf("%s: summary diverges\n got %+v\nwant %+v", label, got.Summary, want.Summary)
	}
	if got.Time != want.Time {
		t.Errorf("%s: modelled time %v, want %v", label, got.Time, want.Time)
	}
	if got.Sched != want.Sched {
		t.Errorf("%s: sched stats %+v, want %+v", label, got.Sched, want.Sched)
	}
}

// eqApps is the four-workload set: each app's threaded variant, the
// hardest case (scheduler plus kernel share the reference stream).
func eqApps() []struct {
	name string
	run  func(Config) SimResult
} {
	return []struct {
		name string
		run  func(Config) SimResult
	}{
		{"matmul", func(c Config) SimResult { return c.RunMatmul(MatmulThreaded, c.R8000()) }},
		{"sor", func(c Config) SimResult { return c.RunSOR(SORThreaded, c.R8000()) }},
		{"pde", func(c Config) SimResult { return c.RunPDE(PDEThreaded, c.R8000()) }},
		{"nbody", func(c Config) SimResult { return c.RunNBody(NBodyThreaded, c.NBodyR8000(), 1) }},
	}
}

// TestGoldenEquivalenceStats pins the exactness contract at the
// simulation level: for each app, the default pipelined path must
// reproduce the serial path's results bit for bit.
func TestGoldenEquivalenceStats(t *testing.T) {
	for _, app := range eqApps() {
		app := app
		t.Run(app.name, func(t *testing.T) {
			t.Parallel()
			base := eqConfig()
			base.Mode = ModeSerial
			want := app.run(base)
			if want.Summary.L2.Misses == 0 || want.Summary.L2.Compulsory == 0 {
				t.Fatalf("degenerate golden baseline (no classified L2 misses): %+v", want.Summary.L2)
			}
			for _, mode := range eqModes[1:] {
				c := eqConfig()
				c.Mode = mode
				requireSameResult(t, mode.String(), want, app.run(c))
			}
		})
	}
}

// TestGoldenEquivalenceParallelJobs pins the experiment pool: the same
// job set through runJobs at Parallel 1 and 4 must produce identical
// result maps (each job owns its hierarchy; only the sink is shared).
func TestGoldenEquivalenceParallelJobs(t *testing.T) {
	jobs := func(c Config) []simJob {
		var js []simJob
		for _, app := range eqApps() {
			app := app
			js = append(js, simJob{app.name, "eq: " + app.name,
				func() SimResult { return app.run(c) }})
		}
		return js
	}
	serial := eqConfig()
	serial.Mode = ModeSerial
	want := serial.runJobs(nil, jobs(serial))
	par := eqConfig()
	par.Mode = ModePipelined
	par.Parallel = 4
	got := par.runJobs(nil, jobs(par))
	if len(got) != len(want) {
		t.Fatalf("parallel pool returned %d results, want %d", len(got), len(want))
	}
	for key, w := range want {
		requireSameResult(t, "parallel/"+key, w, got[key])
	}
}

// TestGoldenEquivalenceTables renders the four apps' miss tables —
// Table 3 (matmul), 5 (PDE), 7 (SOR), and 9 (N-body) — through the
// default path with its inline hand-off (GOMAXPROCS=1) and its ring
// hand-off (GOMAXPROCS=2), and through the parallel pool, demanding
// byte-identical text against the serial render. This is the end-to-end
// contract: whatever path the references take, the published numbers
// cannot move.
func TestGoldenEquivalenceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every miss-table simulation four times")
	}
	builders := []struct {
		name  string
		build func(Config) string
	}{
		{"table3", func(c Config) string { return c.Table3(nil).String() }},
		{"table5", func(c Config) string { return c.Table5(nil).String() }},
		{"table7", func(c Config) string { return c.Table7(nil).String() }},
		{"table9", func(c Config) string { return c.Table9(nil).String() }},
	}
	// The pinned renders run here, before the parallel subtests start.
	inline, ring := map[string]string{}, map[string]string{}
	for _, pin := range []struct {
		procs int
		got   map[string]string
	}{{1, inline}, {2, ring}} {
		withProcs(pin.procs, func() {
			for _, b := range builders {
				pin.got[b.name] = b.build(eqConfig())
			}
		})
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			serial := eqConfig()
			serial.Mode = ModeSerial
			want := b.build(serial)
			if !strings.Contains(want, "L2") {
				t.Fatalf("degenerate golden table render:\n%s", want)
			}
			par := eqConfig()
			par.Parallel = 4
			renders := []struct{ name, got string }{
				{"inline", inline[b.name]},
				{"ring", ring[b.name]},
				{"parallel4", b.build(par)},
			}
			for _, r := range renders {
				if r.got != want {
					t.Errorf("%s render diverges from serial:\n--- serial ---\n%s\n--- %s ---\n%s",
						r.name, want, r.name, r.got)
				}
			}
		})
	}
}
