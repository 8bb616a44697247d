package cache

import "testing"

func TestInvalidateRemovesLine(t *testing.T) {
	c := mustCache(t, Config{Size: 256, LineSize: 32, Assoc: 2})
	c.Access(0, false)
	if !c.Invalidate(0) {
		t.Fatal("resident line not reported invalidated")
	}
	if c.Contains(0) {
		t.Fatal("line survived invalidation")
	}
	if c.Invalidate(0) {
		t.Fatal("absent line reported invalidated")
	}
	// Next access misses again.
	if c.Access(0, false) {
		t.Fatal("hit after invalidation")
	}
}

func TestInvalidateDirtyCountsWriteback(t *testing.T) {
	c := mustCache(t, Config{Size: 256, LineSize: 32, Assoc: 2})
	c.Access(0, true)
	before := c.Stats().Writebacks
	c.Invalidate(0)
	if got := c.Stats().Writebacks; got != before+1 {
		t.Fatalf("writebacks = %d, want %d (dirty invalidation flushes)", got, before+1)
	}
	// Clean invalidation does not.
	c.Access(32, false)
	c.Invalidate(32)
	if got := c.Stats().Writebacks; got != before+1 {
		t.Fatal("clean invalidation counted a writeback")
	}
}

func TestInvalidateLeavesOtherLinesIntact(t *testing.T) {
	c := mustCache(t, Config{Size: 256, LineSize: 32, Assoc: 4})
	for i := uint64(0); i < 4; i++ {
		c.Access(i*64, false)
	}
	c.Invalidate(2 * 64)
	for i := uint64(0); i < 4; i++ {
		want := i != 2
		if c.Contains(i*64) != want {
			t.Fatalf("line %d residency = %v, want %v", i, c.Contains(i*64), want)
		}
	}
	if got := c.Config().Size; got != 256 {
		t.Fatalf("Config().Size = %d", got)
	}
}

// An invalidated way is the first to be refilled: the next allocation
// into the set takes the hole instead of evicting a valid line.
func TestInvalidatedWayRefilledFirst(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		// 2-way, 4 sets of 32-byte lines: 0, 128 and 256 share set 0.
		c := mustCache(t, Config{Size: 256, LineSize: 32, Assoc: 2})
		const a, b, x = 0, 128, 256
		c.Access(a, false)
		c.Access(b, false)
		c.Invalidate(b)
		c.Access(x, false)
		if !c.Contains(a) || !c.Contains(x) || c.Contains(b) {
			t.Fatalf("after A, B, Invalidate(B), C: resident %v, want A and C", c.ResidentLines())
		}
		if got := c.Stats().Misses; got != 3 {
			t.Fatalf("misses = %d, want 3 cold misses", got)
		}
		if !c.Access(a, false) {
			t.Fatal("A was evicted while an invalid way was free")
		}
	})
}

// Invalidating a line keeps the recency order of the others: after
// invalidating the MRU line, the next-most-recent line is the MRU and the
// least recent one is still the next victim.
func TestInvalidateKeepsRecencyOrder(t *testing.T) {
	// 4-way, 2 sets of 32-byte lines: multiples of 64 share set 0.
	c := mustCache(t, Config{Size: 256, LineSize: 32, Assoc: 4})
	for _, addr := range []uint64{0, 64, 128, 192} { // LRU order: 192 128 64 0
		c.Access(addr, false)
	}
	c.Invalidate(192)
	c.Access(256, false) // fills the hole
	c.Access(320, false) // evicts 0, the least recent
	for addr, want := range map[uint64]bool{0: false, 64: true, 128: true, 256: true, 320: true} {
		if got := c.Contains(addr); got != want {
			t.Errorf("Contains(%d) = %v, want %v", addr, got, want)
		}
	}
}
