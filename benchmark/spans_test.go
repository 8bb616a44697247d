package main

import (
	"testing"

	"threadsched/internal/trace"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{SpanID: 1, StartNS: 0, EndNS: 100},
		// Overlapping children count once: [10, 50) covers 40.
		{SpanID: 2, ParentID: 1, StartNS: 10, EndNS: 30},
		{SpanID: 3, ParentID: 1, StartNS: 20, EndNS: 50},
		// A child reaching past its parent covers only the overlap [90, 100).
		{SpanID: 4, ParentID: 1, StartNS: 90, EndNS: 120},
		// A folded child covers its summed call time, not its extent.
		{SpanID: 5, ParentID: 1, StartNS: 55, EndNS: 85, SumNS: 15, Count: 3},
		// Grandchildren reduce only their own parent.
		{SpanID: 6, ParentID: 3, StartNS: 25, EndNS: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 40 - 10 - 15, 2: 20, 3: 20, 4: 30, 5: 30, 6: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// A timed recorder folds every batch call into one child span carrying
// the call count, the summed time and the references, and without a live
// parent only forwards.
func TestTimedRecorderFolds(t *testing.T) {
	tr := newTracer()
	root := tr.begin(nil, "root")
	var counts trace.Counts
	rec := newTimed(root, "cache.record", &counts)
	batch := make([]trace.Ref, 100)
	for i := 0; i < 3; i++ {
		rec.RecordBatch(batch)
	}
	rec.Record(trace.Ref{})
	rec.close()
	root.end(301)
	if counts.Total() != 301 {
		t.Fatalf("forwarded %d references, want 301", counts.Total())
	}
	if len(tr.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(tr.spans))
	}
	f, r := tr.spans[0], tr.spans[1]
	if f.Name != "cache.record" || f.Count != 4 || f.Work != 301 || f.ParentID != r.SpanID || f.TraceID != r.TraceID {
		t.Fatalf("folded span %+v under %+v", f, r)
	}
	if f.SumNS > r.dur() || f.SumNS > f.dur() {
		t.Fatalf("folded sum %d exceeds its extent %d or parent %d", f.SumNS, f.dur(), r.dur())
	}

	var plain trace.Counts
	var nilTracer *tracer
	untimed := newTimed(nilTracer.begin(nil, "root"), "cache.record", &plain)
	untimed.RecordBatch(batch)
	untimed.close()
	if plain.Total() != 100 {
		t.Fatalf("untraced recorder forwarded %d references, want 100", plain.Total())
	}
}
