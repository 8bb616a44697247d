package main

import (
	"math"
	"testing"
)

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// method an outside check of a run's spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 5}, 0, 3, 6},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{70, 10, 20, 30, 40, 50, 60}, 20, 40, 60},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestSummarizeEmptyIsNaN(t *testing.T) {
	if s := summarize(nil); !math.IsNaN(s.Value) || s.N != 0 {
		t.Fatalf("summarize(nil) = %+v, want NaN with n=0", s)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTail(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(30 - i) // 30..1, unsorted on purpose
	}
	pct, v, ok := tail(xs, 10)
	if !ok || v != 20 || math.Abs(pct-66.666) > 0.01 {
		t.Fatalf("tail = %v %v %v, want 66.67%% = 20", pct, v, ok)
	}
	if _, _, ok := tail(xs[:10], 10); ok {
		t.Fatal("tail of 10 samples claims a percentile with 10 beyond it")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {99, 5}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPassMetrics(t *testing.T) {
	byItem := map[string][]float64{"a": {1, 2, 3}, "b": {10, 10, 40, 10}}
	s := sumOfMedians(byItem)
	if s.Value != 12 || s.N != 3 {
		t.Fatalf("sumOfMedians = %+v, want 12 with n=3", s)
	}
	r := inverse(s, 24)
	if r.Value != 2 || r.Q1 > r.Value || r.Q3 < r.Value {
		t.Fatalf("inverse = %+v, want 2 with ordered quartiles", r)
	}
	if l := largestMedian(byItem); l.Value != 10 {
		t.Fatalf("largestMedian = %+v, want 10", l)
	}
}
