package core

import (
	"time"

	"threadsched/internal/obs"
)

// Scheduler metric names, resolved once at construction so the hot paths
// touch pre-looked-up handles only. All are sharded per worker track:
//
//	sched.bins_run          bins executed, per worker — the bins-per-worker split
//	sched.threads_run       threads executed, per worker
//	sched.steals            successful segment steals, per thief worker
//	sched.segment_drain_ns  time to drain one contiguous segment (initial or stolen)
//	sched.tour_overflow     tour builds that saw a block coordinate ≥ 2^curveBits
//	dep.parks               times a parallel DepScheduler worker found nothing runnable and parked
type schedObs struct {
	o            *obs.Obs // nil when disabled; the single enabled/disabled switch
	binsRun      *obs.Counter
	threadsRun   *obs.Counter
	steals       *obs.Counter
	drainNS      *obs.Histogram
	tourOverflow *obs.Counter
}

func newSchedObs(o *obs.Obs) schedObs {
	if o == nil {
		return schedObs{}
	}
	r := o.Registry()
	return schedObs{
		o:            o,
		binsRun:      r.Counter("sched.bins_run"),
		threadsRun:   r.Counter("sched.threads_run"),
		steals:       r.Counter("sched.steals"),
		drainNS:      r.Histogram("sched.segment_drain_ns"),
		tourOverflow: r.Counter("sched.tour_overflow"),
	}
}

// now timestamps a drain start; the zero time (and no clock read) when
// disabled.
func (m *schedObs) now() time.Time {
	if m.o == nil {
		return time.Time{}
	}
	return time.Now()
}

// drainDone records one contiguous segment drain: its duration histogram
// sample, the per-worker bin count, and the timeline span.
func (m *schedObs) drainDone(worker int, start time.Time, bins int, sp obs.Span) {
	if m.o == nil {
		return
	}
	m.drainNS.Observe(worker, uint64(time.Since(start)))
	m.binsRun.Add(worker, uint64(bins))
	sp.End()
}

// span opens a timeline span on the worker's track; the no-op Span when
// the timeline is disabled.
func (m *schedObs) span(worker int, name string) obs.Span {
	if m.o == nil {
		return obs.Span{}
	}
	return m.o.Timeline().Begin(worker, name)
}
