package main

import (
	"math"
	"sort"
)

// summary is one metric as reported: the median of a run's inner
// repetitions with its quartiles and sample count.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// one wraps a single derived value (a ratio of medians, a count) as a
// summary of one sample.
func one(v float64) summary { return summary{Value: v, Q1: v, Q3: v, N: 1} }

// quartiles returns the first quartile, median and third quartile of xs
// by the method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"), so the benchmark's spreads match an outside check of
// the same values. It panics on an empty slice.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarize reduces samples to their median and quartiles; no samples
// give NaN, which the run reports as a metric it failed to measure.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{Value: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	q1, med, q3 := quartiles(xs)
	return summary{Value: med, Q1: q1, Q3: q3, N: len(xs)}
}

// tail returns the highest percentile of xs that has at least beyond
// samples above it, with its value: the rank n-beyond-1 order statistic.
// ok is false when xs holds beyond samples or fewer.
func tail(xs []float64, beyond int) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= beyond {
		return 0, 0, false
	}
	s := sorted(xs)
	k := n - beyond
	return 100 * float64(k) / float64(n), s[k-1], true
}

// percentile returns the nearest-rank p-th percentile of xs, or NaN for
// no values.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}

// sumOfMedians adds up each item's median and quartiles: the time of one
// pass over every item. N is the smallest item count.
func sumOfMedians(byItem map[string][]float64) summary {
	s := summary{N: math.MaxInt}
	for _, xs := range byItem {
		q := summarize(xs)
		s.Value += q.Value
		s.Q1 += q.Q1
		s.Q3 += q.Q3
		s.N = min(s.N, q.N)
	}
	return s
}

// largestMedian is the summary of the item with the largest median.
func largestMedian(byItem map[string][]float64) summary {
	var best summary
	for _, xs := range byItem {
		if q := summarize(xs); q.Value > best.Value {
			best = q
		}
	}
	return best
}

func scale(s summary, k float64) summary {
	return summary{Value: s.Value * k, Q1: s.Q1 * k, Q3: s.Q3 * k, N: s.N}
}

// inverse turns a time in seconds into a rate of work units per second;
// the quartiles swap places.
func inverse(s summary, work float64) summary {
	return summary{Value: work / s.Value, Q1: work / s.Q3, Q3: work / s.Q1, N: s.N}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
