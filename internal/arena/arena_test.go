package arena

import (
	"sync"
	"testing"
)

// A []float64 handed back and handed out again must read all zeros: a
// recycled workload array that came back dirty would change a result.
func TestRecycledSliceIsZeroed(t *testing.T) {
	var p Pool[float64]
	l := p.Lease()
	s := l.Make(100)
	for i := range s {
		s[i] = float64(i) + 0.5
	}
	l.Release()
	again := p.Lease().Make(100)
	if &again[0] != &s[0] {
		t.Fatal("Make did not recycle the released slice")
	}
	if len(again) != 100 || cap(again) != 100 {
		t.Fatalf("recycled slice len %d cap %d, want 100 100", len(again), cap(again))
	}
	for i, v := range again {
		if v != 0 {
			t.Fatalf("recycled slice[%d] = %v, want 0", i, v)
		}
	}
}

// A slice is recycled only for a request of its own length; any other
// length allocates.
func TestRecycleIsKeyedByLength(t *testing.T) {
	var p Pool[int]
	l := p.Lease()
	s := l.Make(8)
	l.Release()
	if other := l.Make(16); len(other) != 16 || &other[0] == &s[0] {
		t.Fatal("a length-16 request reused a length-8 slice")
	}
	if same := l.Make(8); &same[0] != &s[0] {
		t.Fatal("a length-8 request did not reuse the length-8 slice")
	}
}

// Release returns everything the lease handed out, so two jobs in a row
// draw the same memory, and an unreleased slice is never handed out twice.
func TestReleaseReturnsEverySlice(t *testing.T) {
	var p Pool[byte]
	l := p.Lease()
	a, b := l.Make(4), l.Make(4)
	c := p.Lease().Make(4)
	if &c[0] == &a[0] || &c[0] == &b[0] {
		t.Fatal("a slice still leased was handed out again")
	}
	l.Release()
	next := p.Lease()
	x, y := next.Make(4), next.Make(4)
	got := map[*byte]bool{&x[0]: true, &y[0]: true}
	if !got[&a[0]] || !got[&b[0]] {
		t.Fatal("the second job did not reuse both released slices")
	}
}

// A nil lease allocates fresh slices and releases nothing: callers that
// are given no arena behave as if there were none.
func TestNilLeaseAllocates(t *testing.T) {
	var l *Lease[float64]
	s := l.Make(3)
	if len(s) != 3 || cap(s) != 3 {
		t.Fatalf("nil lease Make(3): len %d cap %d", len(s), cap(s))
	}
	l.Release()
}

// Leases on one pool are used from different goroutines at once (one per
// job); the pool must stay consistent under -race.
func TestPoolConcurrentLeases(t *testing.T) {
	var p Pool[float64]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := p.Lease()
			for i := 0; i < 200; i++ {
				s := l.Make(64 + i%3)
				for j := range s {
					if s[j] != 0 {
						t.Errorf("dirty slice from pool")
						return
					}
					s[j] = 1
				}
				if i%5 == 4 {
					l.Release()
				}
			}
			l.Release()
		}()
	}
	wg.Wait()
}
