package cache

import "testing"

func TestPrefetchHalvesSequentialMisses(t *testing.T) {
	plain := mustCache(t, Config{Size: 1024, LineSize: 32, Assoc: 2})
	pf := mustCache(t, Config{Size: 1024, LineSize: 32, Assoc: 2, Prefetch: true})
	// A long sequential sweep far exceeding capacity.
	for i := 0; i < 4096; i++ {
		addr := uint64(i) * 8
		plain.Access(addr, false)
		pf.Access(addr, false)
	}
	p, q := plain.Stats(), pf.Stats()
	if p.Misses != 1024 { // one per 32-byte line
		t.Fatalf("plain misses = %d, want 1024", p.Misses)
	}
	if q.Misses != p.Misses/2 {
		t.Fatalf("prefetch misses = %d, want %d (every other line prefetched)",
			q.Misses, p.Misses/2)
	}
	if q.Prefetches == 0 {
		t.Fatal("no prefetches counted")
	}
}

func TestPrefetchDoesNotDoubleFetchResidentLine(t *testing.T) {
	c := mustCache(t, Config{Size: 1024, LineSize: 32, Assoc: 2, Prefetch: true})
	c.Access(32, false) // misses, prefetches line 2
	c.Access(0, false)  // misses, would prefetch line 1 — already resident
	if got := c.Stats().Prefetches; got != 1 {
		t.Fatalf("prefetches = %d, want 1", got)
	}
}

func TestPrefetchWrapsSetsCorrectly(t *testing.T) {
	// Prefetching the line after the last line of a set must land in the
	// next set without panicking and without corrupting stats identities.
	c := mustCache(t, Config{Size: 128, LineSize: 32, Assoc: 1, Prefetch: true, Classify: true})
	for i := 0; i < 200; i++ {
		c.Access(uint64(i%8)*32, false)
	}
	st := c.Stats()
	if st.Compulsory+st.Capacity+st.Conflict != st.Misses {
		t.Fatalf("classification identity broken under prefetch: %+v", st)
	}
}

func TestPrefetchReducesColdMissesOnStreams(t *testing.T) {
	// With classification on, prefetch converts would-be compulsory
	// misses into hits: compulsory counts drop below the distinct-line
	// count.
	c := mustCache(t, Config{Size: 4096, LineSize: 32, Assoc: 4, Prefetch: true, Classify: true})
	for i := 0; i < 64; i++ {
		c.Access(uint64(i)*32, false)
	}
	if got := c.Stats().Compulsory; got >= 64 {
		t.Fatalf("compulsory = %d, want < 64 under next-line prefetch", got)
	}
}

// The last line of the address space has no next line. Touching it must
// not prefetch: with 1-byte lines line 0 would become resident, with
// 64-byte lines a line no address maps to would, and either would evict
// the dirty line written first, counting a writeback.
func TestPrefetchStopsAtTopOfAddressSpace(t *testing.T) {
	for _, lineSize := range []uint64{1, 64} {
		c := mustCache(t, Config{Size: 2 * lineSize, LineSize: lineSize, Assoc: 1, Prefetch: true})
		c.Access(2*lineSize, true) // dirty line 2 in set 0; prefetches line 3 into set 1
		c.Access(1<<64-1, false)   // the last line, in set 1
		st := c.Stats()
		if st.Prefetches != 1 || st.Writebacks != 0 || !c.Contains(2*lineSize) || c.Contains(0) {
			t.Errorf("%dB lines: %+v, resident %v; want one prefetch, no writeback, line 2 kept",
				lineSize, st, c.ResidentLines())
		}
	}
}
