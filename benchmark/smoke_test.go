package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// runNative re-executes the running binary as its child.
	if os.Getenv(childEnv) == "native" {
		os.Exit(nativeChild(context.Background()))
	}
	os.Exit(m.Run())
}

// tinySizes run every workload's code path in about a second.
var tinySizes = sizes{
	Tables: []string{"table7"}, Passes: 1, SetupReps: 2,
	TraceMatmulN: 32, TraceSORN: 51, TraceSORIters: 2, TraceSORHint: 16 << 10, ReplayPairs: 1,
	Native:   nativeSizes{MatmulN: 48, SORN: 41, SORIters: 3, PDEN: 33, PDEIters: 2, NBodyN: 200, MinRounds: 1},
	WarmJobs: 4, Rate: 40, OpenShare: 0.5, ClosedShare: 0.5,
	CoreThreads: 1 << 10, JournalRecords: 64, TracedJobs: 6,
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// programs builds the programs under test once per test binary.
func programs(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "benchmark-bin-")
		if buildErr == nil {
			buildErr = buildPrograms(context.Background(), "..", binDir)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func testEnv(t *testing.T, seconds time.Duration) *env {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return &env{
		ctx: ctx, bin: programs(t), tmp: t.TempDir(), seed: 7,
		rng: rand.New(rand.NewPCG(7, 1)), seconds: seconds,
		workers: runtime.NumCPU(), size: tinySizes, digests: tableDigests,
	}
}

func TestSmokeWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r, err := workloads[w.Name].run(testEnv(t, 300*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed > 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Failures)
			}
			if err := checkMetrics(r, spec.EndToEnd); err != nil {
				t.Fatal(err)
			}
			for name, s := range r.Metrics {
				if s.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, s.Value)
				}
			}
		})
	}
}

func TestMutatedDigestFails(t *testing.T) {
	e := testEnv(t, 0)
	e.digests = map[string]string{"table7": strings.Repeat("0", 64)}
	r, err := runTables(e)
	if !errors.Is(err, errFailed) {
		t.Fatalf("run with a wrong digest returned %v, want errFailed", err)
	}
	if r.Failed == 0 || r.Failed != r.Attempted {
		t.Fatalf("attempted %d, failed %d: want every table run failed", r.Attempted, r.Failed)
	}
}

func TestTracedSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e := testEnv(t, 0)
	path := filepath.Join(t.TempDir(), "spans.json")
	r, err := runTraced(e, "replay", path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed > 0 {
		t.Fatalf("failed: %v", r.Failures)
	}
	for _, m := range spec.PerLayer {
		name := m.Name
		if strings.HasPrefix(name, "harness.table_s.") {
			name = "harness.table_s." + tinySizes.Tables[0]
		}
		s, ok := r.Metrics[name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			t.Errorf("per-layer metric %s = %+v, %v", name, s, ok)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	traces := map[uint64]bool{}
	for _, s := range doc.Spans {
		if s.EndNS < s.StartNS || s.SpanID == 0 || s.TraceID == 0 {
			t.Fatalf("malformed span %+v", s)
		}
		traces[s.TraceID] = true
	}
	if len(doc.Spans) == 0 || len(traces) >= len(doc.Spans) {
		t.Fatalf("%d spans in %d traces: want spans grouped into traces", len(doc.Spans), len(traces))
	}
}
