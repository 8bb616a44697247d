package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// compareMain implements
//
//	benchmark compare <parent.json>... -- <change.json>...
//
// Each file is a record the benchmark wrote. Runs pair up in order (the
// i-th parent run with the i-th change run, per workload), so the files
// should come from alternating runs of the two commits. It prints one
// verdict per (workload, metric) and exits 1 if any end-to-end metric
// regressed.
func compareMain(args []string) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split <= 0 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <parent.json>... -- <change.json>...")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
		return 2
	}
	parent, err := loadValues(args[:split])
	if err == nil {
		var change map[[2]string][]float64
		change, err = loadValues(args[split+1:])
		if err == nil {
			return printVerdicts(spec, parent, change)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
	return 2
}

// loadValues reads records and lists each (workload, metric)'s values in
// file and run order.
func loadValues(paths []string) (map[[2]string][]float64, error) {
	vals := map[[2]string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rec.Runs {
			for name, s := range r.Metrics {
				k := [2]string{r.Workload, name}
				vals[k] = append(vals[k], s.Value)
			}
		}
	}
	return vals, nil
}

func printVerdicts(spec benchSpec, parent, change map[[2]string][]float64) int {
	specs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		specs[m.Name] = m
	}
	var keys [][2]string
	for k := range parent {
		if _, ok := change[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	code := 0
	for _, k := range keys {
		m, ok := specs[k[1]]
		if !ok {
			continue
		}
		v := judge(parent[k], change[k], m)
		fmt.Printf("%s %s parent %.6g (%.6g %.6g n=%d) change %.6g (%.6g %.6g n=%d) pairs %d won %d: %s\n",
			k[0], k[1], v.parent.Value, v.parent.Q1, v.parent.Q3, v.parent.N,
			v.change.Value, v.change.Q1, v.change.Q3, v.change.N, v.pairs, v.won, v.verdict)
		if v.verdict == "regressed" && m.Bound > 0 {
			code = 1
		}
	}
	return code
}

// judgement is the verdict on one (workload, metric) with its evidence.
type judgement struct {
	parent, change summary
	pairs, won     int
	verdict        string // improved, unchanged, regressed or unresolved
}

// judge applies the pairing rule and the metric's bound. A change
// improved a metric when at least 10 pairs ran, the change won at least
// nine in ten of them (ties count for neither side), and the medians
// differ by more than the parent's interquartile range. It regressed when
// its median is worse than the parent's by more than the bound. Short of
// either, it is unchanged unless the parent's own spread exceeds the
// bound, which leaves it unresolved, unless every change run beat every
// parent run. Per-layer metrics have no bound; for them the pairing rule
// decides in both directions.
func judge(parent, change []float64, m metricSpec) judgement {
	j := judgement{parent: summarize(parent), change: summarize(change), pairs: min(len(parent), len(change))}
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	lost := 0
	for i := 0; i < j.pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			j.won++
		case better(parent[i], change[i]):
			lost++
		}
	}
	gap := math.Abs(j.change.Value - j.parent.Value)
	iqr := j.parent.Q3 - j.parent.Q1
	clear := j.pairs >= 10 && gap > iqr
	worse := (j.change.Value - j.parent.Value) / math.Abs(j.parent.Value)
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	switch {
	case clear && 10*j.won >= 9*j.pairs && better(j.change.Value, j.parent.Value):
		j.verdict = "improved"
	case m.Bound > 0 && worse > m.Bound:
		j.verdict = "regressed"
	case m.Bound == 0 && clear && 10*lost >= 9*j.pairs:
		j.verdict = "regressed"
	case m.Bound > 0 && j.parent.spread() > m.Bound && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}
