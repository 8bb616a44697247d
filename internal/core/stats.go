package core

import (
	"sync/atomic"

	"threadsched/internal/obs"
)

// Stats reports scheduler occupancy, matching the figures quoted in the
// paper's text (e.g. matmul: "1,048,576 threads distributed in 81 bins for
// an average of 12,945 threads per bin", §4.2).
type Stats struct {
	// Pending is the number of threads currently scheduled but not run
	// (or retained by keep).
	Pending int
	// BinsUsed is the number of bins holding at least one thread.
	BinsUsed int
	// MinPerBin and MaxPerBin bound the per-bin thread counts. A bin
	// exists only because a Fork placed a thread in it, so MinPerBin is
	// at least 1 whenever BinsUsed > 0; the empty-scheduler snapshot is
	// all-zero and identified by Empty.
	MinPerBin, MaxPerBin int
	// AvgPerBin is Pending / BinsUsed, or 0 for the empty snapshot.
	AvgPerBin float64
	// TotalForked and TotalRun count threads over the scheduler's
	// lifetime (TotalRun counts re-executions under keep).
	TotalForked, TotalRun uint64
	// Runs is the number of completed Run calls.
	Runs uint64
	// BlockSize and HashDim echo the configuration in effect.
	BlockSize uint64
	HashDim   int
}

// Empty reports whether the snapshot is of a scheduler holding no bins —
// the only case in which MinPerBin and MaxPerBin read 0.
func (st Stats) Empty() bool { return st.BinsUsed == 0 }

// Stats returns a snapshot of scheduler occupancy. It may be called
// concurrently with the thread-execution phase of a Run — the bin
// population is frozen from the start of Run until its release phase —
// but a caller must synchronize with the completion of a keep=false Run
// (whose release recycles the bins Stats walks), exactly as it must for
// Fork.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		TotalForked: s.totalForked,
		TotalRun:    atomic.LoadUint64(&s.totalRun),
		Runs:        s.runs.Load(),
		BlockSize:   s.cfg.BlockSize,
		HashDim:     s.hashDim,
	}
	for b := s.readyHead; b != nil; b = b.readyNext {
		if st.BinsUsed == 0 || b.threads < st.MinPerBin {
			st.MinPerBin = b.threads
		}
		if b.threads > st.MaxPerBin {
			st.MaxPerBin = b.threads
		}
		st.BinsUsed++
		st.Pending += b.threads
	}
	if st.BinsUsed > 0 {
		st.AvgPerBin = float64(st.Pending) / float64(st.BinsUsed)
	}
	return st
}

// LastRun returns the occupancy snapshot of the most recent Run call (the
// zero RunStats before the first). Like Stats, it is safe to call while a
// Run is in progress; it then reports that run's own snapshot, taken as
// the run began.
func (s *Scheduler) LastRun() RunStats {
	if r := s.lastRun.Load(); r != nil {
		return *r
	}
	return RunStats{}
}

// Snapshot merges the attached observability registry — per-worker steal,
// bin, and drain-time metrics recorded by parallel runs — into a
// JSON-serializable snapshot. It returns the zero Snapshot when the
// scheduler was built without Config.Obs.
func (s *Scheduler) Snapshot() obs.Snapshot { return s.cfg.Obs.Snapshot() }

// BinOccupancy returns the per-bin thread counts in ready-list order; used
// by the harness to report thread distribution uniformity (§4.2, §4.4).
func (s *Scheduler) BinOccupancy() []int {
	out := make([]int, 0, s.binsUsed)
	for b := s.readyHead; b != nil; b = b.readyNext {
		out = append(out, b.threads)
	}
	return out
}

// TourOccupancy returns the per-bin thread counts in the order Run will
// visit the bins — ready-list order transformed by Config.Tour — unlike
// BinOccupancy's raw ready-list order. External dispatchers (e.g. the SMP
// simulation) use it to cut the tour into weighted contiguous segments
// with PartitionWeights before driving RunEach.
func (s *Scheduler) TourOccupancy() []int {
	order := s.tour()
	out := make([]int, len(order))
	for i, b := range order {
		out[i] = b.threads
	}
	return out
}
