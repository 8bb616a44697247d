package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpreadDilatesBits(t *testing.T) {
	if spread(0) != 0 {
		t.Error("spread(0) != 0")
	}
	if spread(1) != 1 {
		t.Errorf("spread(1) = %b", spread(1))
	}
	if spread(0b11) != 0b1001 {
		t.Errorf("spread(3) = %b, want 1001", spread(0b11))
	}
	if spread(0b101) != 0b1000001 {
		t.Errorf("spread(5) = %b, want 1000001", spread(0b101))
	}
}

func TestMorton3Interleaves(t *testing.T) {
	cases := []struct {
		key  binKey
		want uint64
	}{
		{binKey{0, 0, 0}, 0},
		{binKey{1, 0, 0}, 1},
		{binKey{0, 1, 0}, 2},
		{binKey{0, 0, 1}, 4},
		{binKey{1, 1, 1}, 7},
		{binKey{2, 0, 0}, 8},
	}
	for _, c := range cases {
		if got := morton3(c.key); got != c.want {
			t.Errorf("morton3(%v) = %d, want %d", c.key, got, c.want)
		}
	}
}

// Property: the Morton code is injective over coordinates < 2^21.
func TestMorton3InjectiveProperty(t *testing.T) {
	f := func(a1, a2, a3, b1, b2, b3 uint32) bool {
		const mask = 1<<curveBits - 1
		ka := binKey{uint64(a1) & mask, uint64(a2) & mask, uint64(a3) & mask}
		kb := binKey{uint64(b1) & mask, uint64(b2) & mask, uint64(b3) & mask}
		if ka == kb {
			return morton3(ka) == morton3(kb)
		}
		return morton3(ka) != morton3(kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the Hilbert index is injective over coordinates < 2^21.
func TestHilbert3InjectiveProperty(t *testing.T) {
	f := func(a1, a2, a3, b1, b2, b3 uint32) bool {
		const mask = 1<<curveBits - 1
		ka := binKey{uint64(a1) & mask, uint64(a2) & mask, uint64(a3) & mask}
		kb := binKey{uint64(b1) & mask, uint64(b2) & mask, uint64(b3) & mask}
		if ka == kb {
			return hilbert3(ka) == hilbert3(kb)
		}
		return hilbert3(ka) != hilbert3(kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The defining property of a Hilbert curve: consecutive indices are
// adjacent points (unit Manhattan distance). Verify by inverting a small
// curve by brute force.
func TestHilbert3Adjacency(t *testing.T) {
	const side = 8 // 8×8×8 cube = 512 cells
	byIndex := make(map[uint64]binKey, side*side*side)
	for x := uint64(0); x < side; x++ {
		for y := uint64(0); y < side; y++ {
			for z := uint64(0); z < side; z++ {
				k := binKey{x, y, z}
				byIndex[hilbert3(k)] = k
			}
		}
	}
	if len(byIndex) != side*side*side {
		t.Fatalf("hilbert3 not injective on the cube: %d distinct indices", len(byIndex))
	}
	// The cube's cells must occupy 512 consecutive indices scaled by the
	// full curve: indices of an 8³ cube under a 2^21-bit curve are the
	// first 512 multiples of (2^21/8)³ = ... — rather than assume the
	// scale, just sort and check each step moves by one cell.
	prev, ok := binKey{}, false
	steps, adjacent := 0, 0
	for i := uint64(0); steps < side*side*side; i++ {
		if i > 1<<24 {
			t.Fatalf("cube cells not found in the low index range; found %d of %d",
				steps, side*side*side)
		}
		k, present := byIndex[i]
		if !present {
			continue
		}
		if ok {
			if manhattan(prev, k) == 1 {
				adjacent++
			}
		}
		prev, ok = k, true
		steps++
	}
	// All consecutive-in-index pairs within the cube must be adjacent.
	if adjacent != side*side*side-1 {
		t.Errorf("only %d/%d consecutive pairs adjacent", adjacent, side*side*side-1)
	}
}

func manhattan(a, b binKey) uint64 {
	var d uint64
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}

// Tour-quality smoke test: on a random cloud of blocks, the Hilbert tour's
// total Manhattan path length must not exceed the allocation-order tour's.
func TestHilbertTourShorterThanRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := make([]binKey, 200)
	for i := range keys {
		keys[i] = binKey{uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64))}
	}
	length := func(ks []binKey) uint64 {
		var sum uint64
		for i := 1; i < len(ks); i++ {
			sum += manhattan(ks[i-1], ks[i])
		}
		return sum
	}
	randomLen := length(keys)
	sorted := make([]binKey, len(keys))
	copy(sorted, keys)
	// Insertion sort by Hilbert index (few elements, avoids importing sort).
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && hilbertLess(sorted[j], sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	hilbertLen := length(sorted)
	if hilbertLen > randomLen {
		t.Errorf("hilbert tour (%d) longer than random order (%d)", hilbertLen, randomLen)
	}
}

// The tour is memoized between runs: re-sorting happens only when a bin
// was allocated since the cached order was built (keep=true re-runs of an
// unchanged schedule reuse the slice as-is).
func TestTourMemoizedUntilBinAllocated(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Tour: TourHilbert})
	for i := 0; i < 64; i++ {
		s.Fork(func(int, int) {}, i, 0, uint64(i)<<12, 0, 0)
	}
	o1 := s.tour()
	o2 := s.tour()
	if &o1[0] != &o2[0] {
		t.Fatal("tour re-collected with no bin allocated")
	}
	// Forking into an existing block must not invalidate the cache.
	s.Fork(func(int, int) {}, 0, 0, 0, 0, 0)
	if o3 := s.tour(); &o3[0] != &o1[0] {
		t.Fatal("fork into existing bin invalidated the tour")
	}
	// A new block must.
	s.Fork(func(int, int) {}, 0, 0, uint64(64)<<12, 0, 0)
	o4 := s.tour()
	if len(o4) != 65 {
		t.Fatalf("tour has %d bins, want 65", len(o4))
	}
	// Destroying the schedule drops the cache (bins are recycled).
	s.Run(false)
	if s.tourCache != nil {
		t.Fatal("tour cache survived release")
	}
	// And the memoized order still is the sorted order on re-runs.
	for i := 0; i < 64; i++ {
		s.Fork(func(int, int) {}, i, 0, uint64(63-i)<<12, 0, 0)
	}
	a := s.tour()
	s.Run(true)
	b := s.tour()
	if &a[0] != &b[0] {
		t.Fatal("keep re-run rebuilt the tour")
	}
	for i := 1; i < len(b); i++ {
		if hilbertLess(b[i].key, b[i-1].key) {
			t.Fatal("memoized tour out of sorted order")
		}
	}
}

// The Morton tour shares the same memoization: the cached order survives
// re-reads and is rebuilt only when Fork allocates a new bin. (The name
// dates from a striped fork table whose per-stripe dirty flags fed this
// staleness decision; one flag now does.)
func TestTourMemoizedSharded(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Tour: TourMorton})
	for i := 0; i < 64; i++ {
		s.Fork(func(int, int) {}, i, 0, uint64(i)<<12, 0, 0)
	}
	o1 := s.tour()
	if o2 := s.tour(); &o2[0] != &o1[0] {
		t.Fatal("morton tour re-collected with no bin allocated")
	}
	s.Fork(func(int, int) {}, 0, 0, uint64(99)<<12, 0, 0)
	o3 := s.tour()
	if len(o3) != 65 {
		t.Fatalf("morton tour has %d bins, want 65", len(o3))
	}
	for i := 1; i < len(o3); i++ {
		if morton3(o3[i].key) < morton3(o3[i-1].key) {
			t.Fatal("memoized morton tour out of sorted order")
		}
	}
}
