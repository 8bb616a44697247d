package main

import "testing"

func series(base, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i%3)
	}
	return xs
}

func TestJudge(t *testing.T) {
	latency := metricSpec{Name: "latency_ms", Better: "lower", Bound: 0.1}
	rate := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	layer := metricSpec{Name: "cache.ns_per_ref", Better: "lower"}
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           string
	}{
		{"faster every pair", latency, series(100, 1, 10), series(80, 1, 10), "improved"},
		{"faster but too few pairs", latency, series(100, 1, 9), series(80, 1, 9), "unchanged"},
		{"faster within the parent's spread", latency, series(100, 3, 10), series(98, 3, 10), "unchanged"},
		{"slower beyond the bound", latency, series(100, 1, 10), series(115, 1, 10), "regressed"},
		{"slower within the bound", latency, series(100, 1, 10), series(105, 1, 10), "unchanged"},
		{"parent spread wider than the bound", latency, series(100, 30, 10), series(104, 30, 10), "unresolved"},
		{"higher is better", rate, series(50, 0.5, 10), series(60, 0.5, 10), "improved"},
		{"rate dropped beyond the bound", rate, series(50, 0.5, 10), series(40, 0.5, 10), "regressed"},
		{"layer lost every pair", layer, series(10, 0.1, 10), series(12, 0.1, 10), "regressed"},
		{"layer unchanged", layer, series(10, 0.1, 10), series(10, 0.1, 10), "unchanged"},
	} {
		if got := judge(c.parent, c.change, c.m); got.verdict != c.want {
			t.Errorf("%s: verdict %s (won %d of %d), want %s", c.name, got.verdict, got.won, got.pairs, c.want)
		}
	}
}

func TestSetsAgree(t *testing.T) {
	specs := []metricSpec{{Name: "latency_ms", Better: "lower", Bound: 0.1}}
	run := func(v float64) *runResult {
		return &runResult{Workload: "replay", Metrics: map[string]summary{"latency_ms": one(v)}}
	}
	if !setsAgree([]*runResult{run(100), run(108)}, 1, specs) {
		t.Error("sets 8% apart disagree under a 10% bound")
	}
	if setsAgree([]*runResult{run(100), run(88)}, 1, specs) {
		t.Error("sets 12% apart agree under a 10% bound")
	}
}
