package cache

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", cfg, err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "L1", Size: 1024, LineSize: 32, Assoc: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Size: 0, LineSize: 32, Assoc: 1},
		{Size: 1000, LineSize: 32, Assoc: 1},     // size not power of two
		{Size: 1024, LineSize: 0, Assoc: 1},      // zero line
		{Size: 1024, LineSize: 33, Assoc: 1},     // line not power of two
		{Size: 64, LineSize: 128, Assoc: 1},      // line > size
		{Size: 1024, LineSize: 32, Assoc: -1},    // negative assoc
		{Size: 1024, LineSize: 32, Assoc: 3},     // lines not divisible
		{Size: 1 << 20, LineSize: 32, Assoc: 48}, // not power-of-two sets
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated, want error", cfg)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{Size: 2 << 20, LineSize: 128, Assoc: 4}
	if cfg.Lines() != 16384 {
		t.Errorf("Lines = %d, want 16384", cfg.Lines())
	}
	if cfg.Sets() != 4096 {
		t.Errorf("Sets = %d, want 4096", cfg.Sets())
	}
	full := Config{Size: 1024, LineSize: 32, Assoc: 0}
	if full.Sets() != 1 {
		t.Errorf("fully associative Sets = %d, want 1", full.Sets())
	}
	if s := cfg.String(); !strings.Contains(s, "4-way") {
		t.Errorf("String() = %q, want it to mention 4-way", s)
	}
	if s := full.String(); !strings.Contains(s, "full") {
		t.Errorf("String() = %q, want it to mention full", s)
	}
}

func TestHitMissBasics(t *testing.T) {
	c := mustCache(t, Config{Size: 256, LineSize: 32, Assoc: 2})
	if c.Access(0, false) {
		t.Fatal("first access hit")
	}
	if !c.Access(0, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(31, false) {
		t.Fatal("same-line access missed")
	}
	if c.Access(32, false) {
		t.Fatal("next-line access hit")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUReplacementWithinSet(t *testing.T) {
	// 2-way, 2 sets, 32B lines (128B total). Lines 0,2,4 share set 0.
	c := mustCache(t, Config{Size: 128, LineSize: 32, Assoc: 2})
	c.Access(0*32, false)
	c.Access(2*32, false)
	c.Access(0*32, false) // line 0 now MRU
	c.Access(4*32, false) // evicts line 2 (LRU)
	if !c.Contains(0 * 32) {
		t.Error("line 0 evicted, but it was MRU")
	}
	if c.Contains(2 * 32) {
		t.Error("line 2 still resident, but it was LRU")
	}
	if !c.Contains(4 * 32) {
		t.Error("line 4 not resident after allocation")
	}
}

func TestWritebackCounting(t *testing.T) {
	// Direct-mapped, 1 set of interest: lines 0 and 4 conflict.
	c := mustCache(t, Config{Size: 128, LineSize: 32, Assoc: 1})
	c.Access(0, true)     // allocate dirty
	c.Access(4*32, false) // evicts dirty line 0
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
	c.Access(0, false)    // clean allocate
	c.Access(4*32, false) // evicts clean line 0
	if c.Stats().Writebacks != 1 {
		t.Fatalf("clean eviction counted as writeback")
	}
}

func TestReadWriteSplit(t *testing.T) {
	c := mustCache(t, Config{Size: 128, LineSize: 32, Assoc: 1})
	c.Access(0, false)
	c.Access(32, true)
	c.Access(64, true)
	st := c.Stats()
	if st.Reads != 1 || st.Writes != 2 {
		t.Fatalf("reads/writes = %d/%d, want 1/2", st.Reads, st.Writes)
	}
}

func TestMissClassificationSimple(t *testing.T) {
	// Direct-mapped 4-line cache; classification enabled.
	c := mustCache(t, Config{Size: 128, LineSize: 32, Assoc: 1, Classify: true})
	// Touch 4 distinct lines mapping to distinct sets: all compulsory.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*32, false)
	}
	st := c.Stats()
	if st.Compulsory != 4 || st.Capacity != 0 || st.Conflict != 0 {
		t.Fatalf("after cold touches: %+v", st)
	}
	// Line 4 maps to set 0 (conflicts with line 0) but the fully
	// associative shadow is now full, so its miss is compulsory; then
	// re-touching line 0 misses in the real cache. The shadow holds
	// {1,2,3,4} so line 0 also misses there: capacity.
	c.Access(4*32, false)
	c.Access(0, false)
	st = c.Stats()
	if st.Compulsory != 5 {
		t.Errorf("compulsory = %d, want 5", st.Compulsory)
	}
	if st.Capacity != 1 {
		t.Errorf("capacity = %d, want 1", st.Capacity)
	}
}

func TestConflictMissDetected(t *testing.T) {
	// Direct-mapped, 4 lines. Working set of 2 lines that conflict:
	// fits capacity-wise, so repeated misses are conflict misses.
	c := mustCache(t, Config{Size: 128, LineSize: 32, Assoc: 1, Classify: true})
	for i := 0; i < 10; i++ {
		c.Access(0, false)    // set 0
		c.Access(4*32, false) // also set 0
	}
	st := c.Stats()
	if st.Compulsory != 2 {
		t.Errorf("compulsory = %d, want 2", st.Compulsory)
	}
	if st.Conflict != st.Misses-2 {
		t.Errorf("conflict = %d, want %d (all non-cold misses)", st.Conflict, st.Misses-2)
	}
	if st.Capacity != 0 {
		t.Errorf("capacity = %d, want 0 for a 2-line working set", st.Capacity)
	}
}

func TestFullyAssociativeHasNoConflictMisses(t *testing.T) {
	f := func(seed int64) bool {
		c, err := New(Config{Size: 512, LineSize: 32, Assoc: 0, Classify: true})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			c.Access(uint64(rng.Intn(64))*32, rng.Intn(2) == 0)
		}
		return c.Stats().Conflict == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestClassificationPartitionsMisses(t *testing.T) {
	f := func(seed int64, assocSel uint8) bool {
		assoc := []int{1, 2, 4, 0}[assocSel%4]
		c, err := New(Config{Size: 1024, LineSize: 32, Assoc: assoc, Classify: true})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			// Mix of sequential and random references over 4x capacity.
			var addr uint64
			if rng.Intn(2) == 0 {
				addr = uint64(i%128) * 32
			} else {
				addr = uint64(rng.Intn(128)) * 32
			}
			c.Access(addr, rng.Intn(4) == 0)
		}
		st := c.Stats()
		return st.Compulsory+st.Capacity+st.Conflict == st.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a larger fully-associative LRU cache never misses more than a
// smaller one on the same stream (the LRU stack inclusion property).
func TestLRUStackInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		small, _ := New(Config{Size: 256, LineSize: 32, Assoc: 0})
		big, _ := New(Config{Size: 1024, LineSize: 32, Assoc: 0})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(256)) * 32
			small.Access(addr, false)
			big.Access(addr, false)
		}
		return big.Stats().Misses <= small.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: higher associativity at equal capacity never increases miss
// count on a stream that a fully associative cache could hold... not true
// in general (Belady anomalies exist for non-LRU), but LRU set-associative
// caches of equal capacity CAN miss more with lower associativity; what is
// always true is that the real cache can never beat the fully-associative
// shadow plus compulsory on totals. Check: misses >= cold misses and
// misses >= fully-assoc misses is NOT guaranteed... so instead verify the
// invariant we rely on for classification: compulsory misses equal the
// number of distinct lines referenced, and no more than the misses.
func TestCompulsoryEqualsDistinctLines(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, _ := New(Config{Size: 256, LineSize: 32, Assoc: 2, Classify: true})
		distinct := make(map[uint64]bool)
		for i, a := range addrs {
			addr := uint64(a)
			c.Access(addr, i%3 == 0)
			distinct[addr>>5] = true
		}
		st := c.Stats()
		return st.Compulsory == uint64(len(distinct)) && st.Misses >= st.Compulsory
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cold misses depend only on the line size, not on the shape of
// the cache (first touches miss regardless of sets and ways), and total
// misses are at least the cold misses.
func TestPoliciesShareColdMissesProperty(t *testing.T) {
	f := func(seed int64) bool {
		mk := func(assoc int) *Cache {
			return MustNew(Config{Size: 256, LineSize: 32, Assoc: assoc, Classify: true})
		}
		caches := []*Cache{mk(1), mk(2), mk(8)}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Intn(64)) * 32
			w := rng.Intn(3) == 0
			for _, c := range caches {
				c.Access(addr, w)
			}
		}
		want := caches[0].Stats().Compulsory
		for _, c := range caches {
			st := c.Stats()
			if st.Compulsory != want || st.Misses < st.Compulsory {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// On a cyclic stream one line larger than a set (the classic LRU worst
// case), LRU misses every access.
func TestCyclicThrashBehavior(t *testing.T) {
	lru := MustNew(Config{Size: 128, LineSize: 32, Assoc: 4})
	for round := 0; round < 50; round++ {
		for ln := uint64(0); ln < 5; ln++ { // 5 lines, 4 ways, one set
			lru.Access(ln*32, false)
		}
	}
	if hits := lru.Stats().Accesses - lru.Stats().Misses; hits != 0 {
		t.Fatalf("LRU got %d hits on a cyclic over-capacity stream, want 0", hits)
	}
}

func TestResidentLines(t *testing.T) {
	c := mustCache(t, Config{Size: 128, LineSize: 32, Assoc: 2})
	c.Access(0, false)
	c.Access(96, false)
	res := c.ResidentLines()
	if !res[0] || !res[3] {
		t.Fatalf("resident = %v, want lines 0 and 3", res)
	}
	if len(res) != 2 {
		t.Fatalf("resident = %v, want exactly 2 lines", res)
	}
}

func TestReset(t *testing.T) {
	c := mustCache(t, Config{Size: 128, LineSize: 32, Assoc: 1, Classify: true})
	c.Access(0, true)
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Fatalf("stats after reset: %+v", c.Stats())
	}
	if c.Contains(0) {
		t.Fatal("line survived reset")
	}
	if c.Access(0, false) {
		t.Fatal("hit after reset")
	}
	if c.Stats().Compulsory != 1 {
		t.Fatal("classification history survived reset")
	}
}

func TestStatsAddAndMissRate(t *testing.T) {
	a := Stats{Accesses: 100, Misses: 10, Compulsory: 1, Capacity: 2, Conflict: 7}
	b := Stats{Accesses: 100, Misses: 30}
	a.Add(b)
	if a.Accesses != 200 || a.Misses != 40 {
		t.Fatalf("Add = %+v", a)
	}
	if got := a.MissRate(); got != 20 {
		t.Errorf("MissRate = %v, want 20", got)
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("zero-access MissRate should be 0")
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{Size: 3})
}
