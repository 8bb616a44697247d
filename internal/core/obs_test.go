package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"threadsched/internal/obs"
)

func snapCounter(s obs.Snapshot, name string) (obs.CounterSnap, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c, true
		}
	}
	return obs.CounterSnap{}, false
}

func snapHistogram(s obs.Snapshot, name string) (obs.HistogramSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return obs.HistogramSnap{}, false
}

// TestSchedulerObservedParallelRun checks the scheduler's metric surface
// end to end: a parallel run must account every bin and thread to some
// worker, time its segment drains, and emit worker timeline spans — and
// attaching all of that must not change what executes.
func TestSchedulerObservedParallelRun(t *testing.T) {
	o := obs.New(4).WithTimeline()
	s := New(Config{Workers: 4, BlockSize: 1 << 12, Obs: o})
	defer s.Close()
	const bins, perBin = 64, 32
	for b := 0; b < bins; b++ {
		for i := 0; i < perBin; i++ {
			s.Fork(func(int, int) {}, b, i, uint64(b)<<12, 0, 0)
		}
	}
	s.Run(false)

	snap := s.Snapshot()
	if c, ok := snapCounter(snap, "sched.bins_run"); !ok || c.Total != bins {
		t.Errorf("sched.bins_run = %+v, want total %d", c, bins)
	}
	if c, ok := snapCounter(snap, "sched.threads_run"); !ok || c.Total != bins*perBin {
		t.Errorf("sched.threads_run = %+v, want total %d", c, bins*perBin)
	}
	h, ok := snapHistogram(snap, "sched.segment_drain_ns")
	if !ok || h.Count == 0 {
		t.Errorf("sched.segment_drain_ns missing or empty: %+v", h)
	}
	if _, ok := snapCounter(snap, "sched.steals"); !ok {
		t.Error("sched.steals counter not registered")
	}

	var buf bytes.Buffer
	if err := o.Timeline().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("timeline is not valid JSON: %s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"drain"`)) {
		t.Errorf("timeline has no drain spans: %s", buf.String())
	}
}

// The serial execution path attributes everything to worker 0.
func TestSchedulerObservedSerialRun(t *testing.T) {
	o := obs.New(2)
	s := New(Config{BlockSize: 1 << 12, Obs: o})
	for i := 0; i < 100; i++ {
		s.Fork(func(int, int) {}, i, 0, uint64(i%10)<<12, 0, 0)
	}
	s.Run(false)
	snap := s.Snapshot()
	if c, _ := snapCounter(snap, "sched.bins_run"); c.Total != 10 || c.PerTrack[0] != 10 {
		t.Errorf("sched.bins_run = %+v, want 10 on track 0", c)
	}
	if c, _ := snapCounter(snap, "sched.threads_run"); c.Total != 100 {
		t.Errorf("sched.threads_run = %+v, want 100", c)
	}
}

// Tour overflow is observable: an overflowing Morton tour build bumps
// sched.tour_overflow.
func TestTourOverflowCounter(t *testing.T) {
	o := obs.New(1)
	s := New(Config{BlockSize: 1 << 12, Tour: TourMorton, Obs: o})
	s.Fork(func(int, int) {}, 0, 0, uint64(1)<<(curveBits+12), 0, 0)
	s.Fork(func(int, int) {}, 1, 0, 0, 0, 0)
	s.Run(false)
	if c, ok := snapCounter(s.Snapshot(), "sched.tour_overflow"); !ok || c.Total != 1 {
		t.Errorf("sched.tour_overflow = %+v, want 1", c)
	}
}

// TestDepSchedulerObservedParks checks the parallel executor's metric: a
// chain of dependent threads across two bins runs on one worker, which
// keeps each dependent it readies, so every other worker finds nothing
// runnable and parks exactly once before the run ends.
func TestDepSchedulerObservedParks(t *testing.T) {
	for _, workers := range []int{2, 4} {
		o := obs.New(workers)
		d := NewDep(Config{Workers: workers, BlockSize: 1 << 12, Obs: o})
		ran := make([]bool, 8)
		var prev ThreadID
		for i := 0; i < 8; i++ {
			i := i
			deps := []ThreadID{}
			if i > 0 {
				deps = append(deps, prev)
			}
			prev = d.Fork(func(int, int) { ran[i] = true }, i, 0, uint64(i%2)<<12, 0, 0, deps...)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		d.Close()
		for i, r := range ran {
			if !r {
				t.Fatalf("workers=%d: thread %d did not run", workers, i)
			}
		}
		snap := d.Snapshot()
		if c, ok := snapCounter(snap, "dep.parks"); !ok || c.Total != uint64(workers-1) {
			t.Errorf("workers=%d: dep.parks = %+v, want %d (one per idle worker)", workers, c, workers-1)
		}
	}
}

// TestObservedRunEquivalence pins the tentpole's non-interference
// contract at the scheduler level: execution order is identical with and
// without the observability layer attached.
func TestObservedRunEquivalence(t *testing.T) {
	runOrder := func(o *obs.Obs) []int {
		var order []int
		s := New(Config{BlockSize: 1 << 12, Tour: TourMorton, Obs: o})
		for i := 0; i < 200; i++ {
			i := i
			s.Fork(func(int, int) { order = append(order, i) }, i, 0, uint64((i*37)%50)<<12, 0, 0)
		}
		s.Run(false)
		return order
	}
	plain := runOrder(nil)
	observed := runOrder(obs.New(2).WithTimeline())
	if len(plain) != len(observed) {
		t.Fatalf("lengths differ: %d vs %d", len(plain), len(observed))
	}
	for i := range plain {
		if plain[i] != observed[i] {
			t.Fatalf("execution order diverges at %d: %d vs %d", i, plain[i], observed[i])
		}
	}
}
