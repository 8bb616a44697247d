package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPartitionWeightsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(100) + 1
		parts := rng.Intn(12) + 1
		weights := make([]int, n)
		for i := range weights {
			weights[i] = rng.Intn(1000)
		}
		starts := PartitionWeights(weights, parts)
		want := parts
		if want > n {
			want = n
		}
		if len(starts) != want {
			t.Fatalf("n=%d parts=%d: got %d segments, want %d", n, parts, len(starts), want)
		}
		if starts[0] != 0 {
			t.Fatalf("first segment starts at %d", starts[0])
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] <= starts[i-1] {
				t.Fatalf("empty or non-monotone segment: starts=%v", starts)
			}
		}
		if starts[len(starts)-1] >= n {
			t.Fatalf("last segment empty: starts=%v n=%d", starts, n)
		}
	}
}

func TestPartitionWeightsBalance(t *testing.T) {
	// Uniform weights must split near-evenly.
	weights := make([]int, 100)
	for i := range weights {
		weights[i] = 10
	}
	starts := PartitionWeights(weights, 4)
	if len(starts) != 4 {
		t.Fatalf("starts = %v", starts)
	}
	for i := 0; i < 4; i++ {
		hi := 100
		if i+1 < 4 {
			hi = starts[i+1]
		}
		if size := hi - starts[i]; size < 20 || size > 30 {
			t.Fatalf("uniform split uneven: starts=%v", starts)
		}
	}
	// One giant item must not drag its segment's neighbours along.
	skew := []int{1, 1, 1000, 1, 1, 1, 1, 1}
	starts = PartitionWeights(skew, 3)
	sums := segmentSums(skew, starts)
	if sums[0] > 1002 && len(sums) > 1 {
		t.Fatalf("giant item's segment absorbed neighbours: sums=%v starts=%v", sums, starts)
	}
}

func TestPartitionWeightsEdgeCases(t *testing.T) {
	if got := PartitionWeights(nil, 4); got != nil {
		t.Fatalf("empty input: %v", got)
	}
	if got := PartitionWeights([]int{5}, 4); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single item: %v", got)
	}
	if got := PartitionWeights([]int{1, 2, 3}, 0); len(got) != 1 {
		t.Fatalf("zero parts: %v", got)
	}
	// All-zero weights (empty bins cannot occur, but the function must
	// not divide by zero or loop).
	if got := PartitionWeights([]int{0, 0, 0, 0}, 2); len(got) != 2 {
		t.Fatalf("zero weights: %v", got)
	}
}

func segmentSums(weights []int, starts []int) []int {
	sums := make([]int, len(starts))
	for i := range starts {
		hi := len(weights)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		for j := starts[i]; j < hi; j++ {
			sums[i] += weights[j]
		}
	}
	return sums
}

func TestBinSegmentClaimAndSteal(t *testing.T) {
	var seg binSegment
	seg.bounds.Store(packRange(3, 10))
	if r := seg.remaining(); r != 7 {
		t.Fatalf("remaining = %d, want 7", r)
	}
	if lo, hi, ok := seg.take(1); !ok || lo != 3 || hi != 4 {
		t.Fatalf("take(1) = [%d,%d),%v, want [3,4)", lo, hi, ok)
	}
	lo, hi, ok := seg.stealHalf()
	if !ok || lo != 7 || hi != 10 { // 6 left in [4,10): thief takes [7,10)
		t.Fatalf("stealHalf = [%d,%d),%v", lo, hi, ok)
	}
	// Owner keeps [4,7).
	for want := 4; want < 7; want++ {
		if lo, hi, ok := seg.take(1); !ok || lo != want || hi != want+1 {
			t.Fatalf("take(1) = [%d,%d),%v, want [%d,%d)", lo, hi, ok, want, want+1)
		}
	}
	if _, _, ok := seg.take(1); ok {
		t.Fatal("segment not exhausted")
	}
	// A segment with one remaining index is never stolen.
	seg.bounds.Store(packRange(0, 1))
	if _, _, ok := seg.stealHalf(); ok {
		t.Fatal("stole the owner's last bin")
	}
	// A take claims an eighth of the remainder, at least one, at most
	// chunk.
	for _, c := range []struct{ n, chunk, want int }{
		{100, DefaultStealChunk, 13}, {100, 4, 4}, {1000, DefaultStealChunk, DefaultStealChunk}, {3, 16, 1},
	} {
		seg.bounds.Store(packRange(0, c.n))
		if lo, hi, ok := seg.take(c.chunk); !ok || lo != 0 || hi != c.want {
			t.Fatalf("take(%d) of %d = [%d,%d),%v, want [0,%d)", c.chunk, c.n, lo, hi, ok, c.want)
		}
	}
}

// TestSegmentsClaimEachIndexOnce drives the production claim path — each
// owner take(chunk)s its segment front to back while idle workers
// stealInto it from the back — from many goroutines, at chunk sizes from
// one bin up to DefaultStealChunk, and verifies exactly-once claiming:
// the property the whole dispatch rests on. Run it under -race.
func TestSegmentsClaimEachIndexOnce(t *testing.T) {
	const n = 10000
	const workers = 8
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1 + i%13
	}
	starts := PartitionWeights(weights, workers)
	for _, chunk := range []int{1, 4, DefaultStealChunk} {
		segs := make([]binSegment, len(starts))
		for i := range segs {
			hi := n
			if i+1 < len(starts) {
				hi = starts[i+1]
			}
			segs[i].bounds.Store(packRange(starts[i], hi))
		}
		claimed := make([]int32, n)
		ctrl := newRunControl(context.Background())
		var wg sync.WaitGroup
		for w := 0; w < len(segs); w++ {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				for {
					if lo, hi, ok := segs[self].take(chunk); ok {
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&claimed[i], 1)
						}
						continue
					}
					if !stealInto(segs, self, ctrl) {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for i, c := range claimed {
			if c != 1 {
				t.Fatalf("chunk=%d: index %d claimed %d times", chunk, i, c)
			}
		}
	}
}

// TestDetachUpperConcurrent hammers one segment with a draining owner and
// two thieves detaching its upper half with stealHalf, checking every
// index is claimed exactly once across all parties.
func TestDetachUpperConcurrent(t *testing.T) {
	const n = 1 << 14
	var seg binSegment
	seg.bounds.Store(packRange(0, n))
	claimed := make([]int32, n)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // owner drains from the front
		defer wg.Done()
		for {
			lo, hi, ok := seg.take(4)
			if !ok {
				return
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&claimed[i], 1)
			}
		}
	}()
	thief := func() {
		defer wg.Done()
		for {
			lo, hi, ok := seg.stealHalf()
			if !ok {
				if seg.remaining() == 0 {
					return
				}
				continue // owner still holds the last index
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&claimed[i], 1)
			}
		}
	}
	go thief()
	go thief()
	wg.Wait()
	for i, c := range claimed {
		if c != 1 {
			t.Fatalf("index %d claimed %d times", i, c)
		}
	}
}

// TestStealChunkKnob checks the claim chunk: an owner draining alone
// claims consecutive runs of at most chunk bins that cover its segment
// once, and a parallel Run at the production chunk, DefaultStealChunk,
// runs every thread of a skewed workload exactly once.
func TestStealChunkKnob(t *testing.T) {
	if DefaultStealChunk < 1 {
		t.Fatalf("DefaultStealChunk = %d, want >= 1", DefaultStealChunk)
	}
	const n = 1000
	for _, chunk := range []int{1, 2, 64, DefaultStealChunk} {
		var seg binSegment
		seg.bounds.Store(packRange(0, n))
		next := 0
		for {
			lo, hi, ok := seg.take(chunk)
			if !ok {
				break
			}
			if lo != next || hi <= lo || hi-lo > chunk {
				t.Fatalf("chunk=%d: take = [%d,%d), want a run of 1..%d from %d", chunk, lo, hi, chunk, next)
			}
			next = hi
		}
		if next != n {
			t.Fatalf("chunk=%d: drained to %d, want %d", chunk, next, n)
		}
	}
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 13, Workers: 4})
	counts := make([]int32, 2000)
	for i := range counts {
		s.Fork(func(a1, _ int) { atomic.AddInt32(&counts[a1], 1) }, i, 0,
			uint64(i%(8+i%29))<<13, 0, 0)
	}
	s.Run(false)
	s.Close()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("thread %d ran %d times", i, c)
		}
	}
}
