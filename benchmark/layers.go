package main

import (
	"fmt"
	"time"
)

// part drives one workload's work in-process through the public
// functions of the layers it exercises, recording spans on t (nil runs it
// untraced). Failed checks go to r; an error means the part could not run.
type part func(e *env, t *tracer, r *runResult) error

// partOrder is the order of the traced run's first pass.
var partOrder = []string{"tables", "replay", "native", "serve"}

// runTraced is the per-layer run of one workload. It first drives every
// part once with spans, so that every layer's metrics exist whichever
// workload was asked for, then alternates the workload's own part
// untraced and traced until the run's seconds are spent; those pairs give
// the tracing overhead. The spans go to spansPath.
func runTraced(e *env, workload, spansPath string) (*runResult, error) {
	r := newResult(workload, e)
	t := newTracer()
	own := workloads[workload].part
	timePart := func(p part, t *tracer) (float64, error) {
		r.Attempted++
		start := time.Now()
		err := p(e, t, r)
		return time.Since(start).Seconds(), err
	}
	start := time.Now()
	for _, name := range partOrder {
		if _, err := timePart(workloads[name].part, t); err != nil {
			return nil, fmt.Errorf("%s part: %w", name, err)
		}
	}
	var traced, untraced []float64
	for len(untraced) == 0 || time.Since(start) < e.seconds {
		d, err := timePart(own, nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, d)
		if d, err = timePart(own, t); err != nil {
			return nil, err
		}
		traced = append(traced, d)
	}
	r.Metrics = layerMetrics(t, e.size)
	r.Metrics["trace_overhead_pct"] = one(100 * (median(traced)/median(untraced) - 1))
	r.Metrics["traced_wall_s"] = summarize(traced)
	return r, t.writeSpans(spansPath)
}

// layerMetrics reduces the spans and samples to the per-layer metrics.
func layerMetrics(t *tracer, sz sizes) map[string]summary {
	self := selfTimes(t.spans)
	byName := map[string][]span{}
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	// perWork is nanoseconds per unit of work over every span named
	// name: their self time, summed call time when folded, or duration.
	perWork := func(name string, useSelf bool) float64 {
		var ns, work int64
		for _, s := range byName[name] {
			switch {
			case useSelf:
				ns += self[s.SpanID]
			case s.folded():
				ns += s.SumNS
			default:
				ns += s.dur()
			}
			work += s.Work
		}
		return float64(ns) / float64(work)
	}
	durs := func(name string, unit time.Duration) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, float64(s.dur())/float64(unit))
		}
		return xs
	}
	m := map[string]summary{
		"core.fork_ns_per_thread":        one(perWork("core.fork", false)),
		"core.run_ns_per_thread":         one(perWork("core.run", false)),
		"core.par_run_ns_per_thread":     one(perWork("core.par_run", false)),
		"core.steals":                    summarize(t.samples["core.steals"]),
		"sim.emit_ns_per_ref":            one(perWork("sim.emit", true)),
		"sim.sliced_refs_per_s":          one(1e9 / perWork("sim.sliced", false)),
		"cache.ns_per_ref":               one(perWork("cache.record", false)),
		"trace.encode_ns_per_ref":        one(perWork("trace.encode", false)),
		"trace.load_ns_per_ref":          one(perWork("trace.load", false)),
		"trace.decode_ns_per_ref":        one(perWork("trace.decode", true)),
		"trace.decode_serial_ns_per_ref": one(perWork("trace.decode_serial", false)),
		"tables.render_us":               summarize(durs("tables.render", time.Microsecond)),
		"server.submit_ms_p50":           summarize(durs("server.submit", time.Millisecond)),
		"server.queue_ms_mean":           one(sum(t.samples["server.queue_ms"]) / float64(len(t.samples["server.queue_ms"]))),
		"server.run_ms_p50":              summarize(t.samples["server.run_ms"]),
		"server.wait_overhead_ms_p50":    summarize(t.samples["server.wait_overhead_ms"]),
		"server.gen_late_ms_max":         one(percentile(t.samples["server.gen_late_ms"], 100)),
		"journal.append_us_p50":          summarize(durs("journal.append", time.Microsecond)),
		"journal.append_us_p99":          one(percentile(durs("journal.append", time.Microsecond), 99)),
		"journal.sync_us_p50":            summarize(durs("journal.sync", time.Microsecond)),
		"journal.replay_ms":              summarize(durs("journal.replay", time.Millisecond)),
	}
	var refs float64
	for _, k := range traceKernels(sz) {
		m["cache.l2_miss_ratio."+k.name] = summarize(t.samples["cache.l2_miss_ratio."+k.name])
		refs += median(t.samples["sim.refs."+k.name])
	}
	m["sim.refs"] = one(refs)

	var serial, par float64
	for _, k := range kernelNames {
		p := durs("apps."+k, time.Second)
		m["apps."+k+"_s"] = summarize(p)
		par += median(p)
		serial += median(durs("apps."+k+".serial", time.Second))
	}
	m["apps.par_speedup"] = one(serial / par)

	var tablesS float64
	for _, name := range sz.Tables {
		xs := durs("harness.table."+name, time.Second)
		m["harness.table_s."+name] = summarize(xs)
		tablesS += median(xs)
	}
	m["harness.pool_speedup"] = one(tablesS / median(durs("harness.pool", time.Second)))
	for _, req := range serveMix {
		m["harness.job_ms."+req.Kind] = summarize(durs("harness.job."+req.Kind, time.Millisecond))
	}
	return m
}
