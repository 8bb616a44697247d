package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsConcurrentWithParallelRun is the -race regression for the
// Stats data race: runs and lastRun used to be plain fields incremented
// by Run but read by Stats/LastRun, which are documented callable
// concurrently with a Run's thread-execution phase. Readers hammer Stats
// and LastRun while parallel keep=true re-runs and a RunEach are live,
// and quiesce before the destructive release of the final keep=false Run.
func TestStatsConcurrentWithParallelRun(t *testing.T) {
	s := New(Config{Workers: 4, BlockSize: 1 << 12})
	defer s.Close()
	var executed atomic.Uint64
	const threads = 1 << 12
	for i := 0; i < threads; i++ {
		s.Fork(func(int, int) { executed.Add(1) }, i, 0, uint64(i)<<6, 0, 0)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.BinsUsed > 0 && st.MinPerBin < 1 {
					t.Errorf("occupied snapshot with MinPerBin %d", st.MinPerBin)
					return
				}
				lr := s.LastRun()
				if !lr.Empty() && lr.MinPerBin < 1 {
					t.Errorf("occupied run snapshot with MinPerBin %d", lr.MinPerBin)
					return
				}
			}
		}()
	}

	const reruns = 3
	for r := 0; r < reruns; r++ {
		s.Run(true)
	}
	s.RunEach(true, nil)
	close(stop)
	wg.Wait() // readers quiesce before the destructive run below
	s.Run(false)

	if got := executed.Load(); got != (reruns+2)*threads {
		t.Fatalf("executed %d threads, want %d", got, (reruns+2)*threads)
	}
	if st := s.Stats(); st.Runs != reruns+2 {
		t.Fatalf("Runs = %d, want %d", st.Runs, reruns+2)
	}
}

// TestStatsConcurrentWithRunSerialFork covers the same contract with
// readers live only across keep=true runs: Stats and LastRun are legal
// during the thread-execution phase of a Run (here keep=true, so no
// release happens while readers are live).
func TestStatsConcurrentWithRunSerialFork(t *testing.T) {
	s := New(Config{Workers: 4, BlockSize: 1 << 12})
	defer s.Close()
	const threads = 1 << 11
	for i := 0; i < threads; i++ {
		s.Fork(func(int, int) {}, i, 0, uint64(i)<<6, 0, 0)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Stats()
			_ = s.LastRun()
		}
	}()
	for r := 0; r < 4; r++ {
		s.Run(true)
	}
	close(stop)
	<-done // readers quiesce before the destructive run below
	s.Run(false)
	if st := s.Stats(); st.Runs != 5 || st.TotalRun != 5*threads {
		t.Fatalf("stats after runs = %+v", st)
	}
}

// TestEmptySchedulerSnapshot pins the empty-snapshot contract: with no
// bins occupied, Stats and RunStats are all-zero, Empty reports true, and
// MinPerBin can never be confused with a (nonexistent) zero-thread bin —
// an occupied scheduler always reports MinPerBin ≥ 1.
func TestEmptySchedulerSnapshot(t *testing.T) {
	s := New(Config{BlockSize: 1 << 12})
	st := s.Stats()
	if !st.Empty() {
		t.Fatalf("fresh scheduler snapshot not Empty: %+v", st)
	}
	if st.MinPerBin != 0 || st.MaxPerBin != 0 || st.AvgPerBin != 0 || st.Pending != 0 {
		t.Fatalf("fresh scheduler snapshot not all-zero: %+v", st)
	}
	if lr := s.LastRun(); !lr.Empty() {
		t.Fatalf("LastRun before any Run not Empty: %+v", lr)
	}

	// A Run with nothing forked completes and records the empty snapshot.
	s.Run(false)
	lr := s.LastRun()
	if !lr.Empty() || lr.Threads != 0 || lr.MinPerBin != 0 || lr.MaxPerBin != 0 || lr.AvgPerBin != 0 {
		t.Fatalf("empty Run snapshot = %+v, want all-zero", lr)
	}
	if st := s.Stats(); st.Runs != 1 {
		t.Fatalf("empty Run not counted: Runs = %d", st.Runs)
	}

	// One fork: the snapshot leaves the empty state and Min ≥ 1.
	s.Fork(func(int, int) {}, 0, 0, 0, 0, 0)
	st = s.Stats()
	if st.Empty() || st.MinPerBin != 1 || st.MaxPerBin != 1 {
		t.Fatalf("one-thread snapshot = %+v, want Min=Max=1", st)
	}
	s.Run(false)
	if lr := s.LastRun(); lr.Empty() || lr.MinPerBin != 1 {
		t.Fatalf("one-thread run snapshot = %+v", lr)
	}
}
