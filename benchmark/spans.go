package main

import (
	"sort"
	"sync"
	"time"

	"threadsched/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one job or replay share a
// TraceID. A folded span stands for many short calls (one per reference
// batch): SumNS is their total time and Count their number, while
// StartNS and EndNS bound the first and last call.
type span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SumNS    int64  `json:"sum_ns,omitempty"`
	Count    int64  `json:"count,omitempty"`
	// Work is the number of units (references, threads) the call
	// processed, for per-unit costs.
	Work int64 `json:"work,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// folded reports whether the span stands for many calls, so that it
// covers its summed call time of its parent rather than its duration.
func (s span) folded() bool { return s.Count > 0 }

// tracer keeps spans and per-layer samples in memory until the run
// writes them out. A nil *tracer records nothing, so the same code runs
// untraced at no cost beyond a nil check.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	nextID  uint64
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: map[string][]float64{}}
}

// spanRef is an open span; end records it.
type spanRef struct {
	t           *tracer
	traceID, id uint64
	parent      uint64
	name        string
	start       int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// begin opens a span named name under parent; a zero parent starts a new
// trace.
func (t *tracer) begin(parent *spanRef, name string) *spanRef {
	if t == nil {
		return nil
	}
	r := &spanRef{t: t, id: t.newID(), name: name}
	if parent != nil {
		r.traceID, r.parent = parent.traceID, parent.id
	} else {
		r.traceID = r.id
	}
	r.start = t.now()
	return r
}

// end closes the span, crediting it with work units.
func (r *spanRef) end(work int64) {
	if r == nil {
		return
	}
	end := r.t.now()
	r.t.add(span{TraceID: r.traceID, SpanID: r.id, ParentID: r.parent, Name: r.name,
		StartNS: r.start, EndNS: end, Work: work})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// sample records one observation of a named per-layer quantity that is
// not a span duration (a queue wait reported by the server, a steal
// count read from a scheduler snapshot).
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[name] = append(t.samples[name], v)
}

// timed forwards reference batches to next. Under a live parent span it
// times every call and folds them into one child span named name when
// closed; under a nil parent it adds nothing but the forwarding call.
type timed struct {
	next   trace.BatchRecorder
	parent *spanRef
	name   string
	first  int64
	last   int64
	sum    int64
	count  int64
	refs   int64
}

func newTimed(parent *spanRef, name string, next trace.BatchRecorder) *timed {
	return &timed{next: next, parent: parent, name: name}
}

func (r *timed) Record(ref trace.Ref) { r.RecordBatch([]trace.Ref{ref}) }

func (r *timed) RecordBatch(refs []trace.Ref) {
	if r.parent == nil {
		r.next.RecordBatch(refs)
		return
	}
	t := r.parent.t
	start := t.now()
	r.next.RecordBatch(refs)
	end := t.now()
	if r.count == 0 {
		r.first = start
	}
	r.last = end
	r.sum += end - start
	r.count++
	r.refs += int64(len(refs))
}

// close records the folded child span.
func (r *timed) close() {
	if r.parent == nil || r.count == 0 {
		return
	}
	p := r.parent
	p.t.add(span{TraceID: p.traceID, SpanID: p.t.newID(), ParentID: p.id, Name: r.name,
		StartNS: r.first, EndNS: r.last, SumNS: r.sum, Count: r.count, Work: r.refs})
}

// selfTimes maps each span to its self time: its duration minus the part
// of it that its children cover. Overlapping children (parallel calls)
// count once; a folded child covers its summed call time.
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.ParentID != 0 {
			kids[s.ParentID] = append(kids[s.ParentID], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		var covered int64
		var iv [][2]int64
		for _, c := range kids[s.SpanID] {
			if c.folded() {
				covered += c.SumNS
				continue
			}
			lo, hi := max(c.StartNS, s.StartNS), min(c.EndNS, s.EndNS)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var curLo, curHi int64 = 0, -1
		for _, x := range iv {
			if x[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[s.SpanID] = max(s.dur()-covered, 0)
	}
	return self
}

// writeSpans writes the recorded spans and samples as one JSON document.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSON(path, struct {
		Spans   []span               `json:"spans"`
		Samples map[string][]float64 `json:"samples"`
	}{t.spans, t.samples})
}
