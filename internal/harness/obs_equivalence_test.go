package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"threadsched/internal/obs"
)

// TestGoldenEquivalenceObserved pins the tentpole's non-interference
// contract at the harness level: attaching the full observability layer
// (metrics + timeline) to a run must leave every simulation result —
// reference tallies, miss classification, modelled time, scheduler
// occupancy — bit-identical, on the serial oracle and on the pipeline.
func TestGoldenEquivalenceObserved(t *testing.T) {
	for _, app := range eqApps {
		app := app
		t.Run(app.key, func(t *testing.T) {
			t.Parallel()
			for _, mode := range eqModes {
				plain := eqConfig()
				plain.serial = mode.serial
				want := plain.runSpec(app.spec)

				observed := eqConfig()
				observed.serial = mode.serial
				observed.Obs = obs.New(4).WithTimeline()
				got := observed.runSpec(app.spec)
				requireSameResult(t, "observed/"+mode.name, want, got)

				// The run must actually have been observed: the threaded
				// variants all drive a scheduler and a CPU.
				snap := observed.Obs.Snapshot()
				var refs, threads bool
				for _, c := range snap.Counters {
					refs = refs || (c.Name == "sim.refs" && c.Total > 0)
					threads = threads || (c.Name == "sched.threads_run" && c.Total > 0)
				}
				if !refs || !threads {
					t.Errorf("%s: observed run produced an empty snapshot: %+v", mode.name, snap)
				}
			}
		})
	}
}

// TestGoldenEquivalenceObservedTable renders one full miss table with the
// observability layer on a parallel pipelined pool — the configuration
// with every instrumented path live at once — and demands byte-identical
// text, plus a valid timeline.
func TestGoldenEquivalenceObservedTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the SOR miss-table simulations twice")
	}
	serial := eqConfig()
	serial.serial = true
	want := serial.Table7(nil).String()

	observed := eqConfig()
	observed.Parallel = 4
	observed.Obs = obs.New(8).WithTimeline()
	if got := observed.Table7(nil).String(); got != want {
		t.Errorf("observed render diverges from serial:\n--- serial ---\n%s\n--- observed ---\n%s", want, got)
	}
	var buf bytes.Buffer
	if err := observed.Obs.Timeline().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("timeline is not valid JSON: %s", buf.String())
	}
}
