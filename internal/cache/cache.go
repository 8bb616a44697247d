// Package cache implements the trace-driven cache simulator used by the
// reproduction in place of the paper's modified DineroIII. It provides
// set-associative write-back, write-allocate caches with LRU replacement
// and optional next-line prefetch, a two-level hierarchy (split
// first-level instruction and data caches over a unified second-level
// cache), and single-pass classification of misses into compulsory,
// capacity, and conflict misses in the sense of Hill & Smith:
//
//   - compulsory: the first reference ever made to the line;
//   - capacity:   a non-compulsory miss that a fully-associative LRU cache
//     of the same capacity and line size would also incur;
//   - conflict:   every other miss.
//
// Classification requires a shadow fully-associative model that observes
// the same reference stream as the classified cache, so it is opt-in per
// cache; the experiments enable it only for the second-level cache, whose
// miss breakdown is what the paper reports (Tables 3, 5, 7, 9).
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	// Name labels the cache in output ("L1I", "L1D", "L2").
	Name string
	// Size is the capacity in bytes; must be a power of two.
	Size uint64
	// LineSize is the line (block) size in bytes; must be a power of two.
	LineSize uint64
	// Assoc is the set associativity. 0 means fully associative.
	Assoc int
	// Classify enables compulsory/capacity/conflict classification for
	// this cache, at the cost of a shadow fully-associative model.
	Classify bool
	// Prefetch enables tagged next-line prefetching: a demand miss also
	// fetches the following line (if absent). Prefetches are counted in
	// Stats.Prefetches, not in Accesses/Misses, matching DineroIII's
	// demand-fetch accounting. The 1996 machines did not prefetch; the
	// option exists to model why modern hardware hides streaming misses.
	Prefetch bool
}

// Lines returns the number of lines the cache holds.
func (c Config) Lines() uint64 { return c.Size / c.LineSize }

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() uint64 {
	if c.Assoc <= 0 {
		return 1
	}
	return c.Lines() / uint64(c.Assoc)
}

// String renders the configuration in a compact dinero-like form.
func (c Config) String() string {
	assoc := "full"
	if c.Assoc > 0 {
		assoc = fmt.Sprintf("%d-way", c.Assoc)
	}
	return fmt.Sprintf("%s %dB %s lines=%dB", c.Name, c.Size, assoc, c.LineSize)
}

var errBadConfig = errors.New("cache: invalid configuration")

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Size == 0 || c.Size&(c.Size-1) != 0:
		return fmt.Errorf("%w: size %d not a power of two", errBadConfig, c.Size)
	case c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("%w: line size %d not a power of two", errBadConfig, c.LineSize)
	case c.LineSize > c.Size:
		return fmt.Errorf("%w: line size %d exceeds size %d", errBadConfig, c.LineSize, c.Size)
	case c.Assoc < 0:
		return fmt.Errorf("%w: negative associativity", errBadConfig)
	case c.Assoc > 0 && c.Lines()%uint64(c.Assoc) != 0:
		return fmt.Errorf("%w: %d lines not divisible by associativity %d", errBadConfig, c.Lines(), c.Assoc)
	}
	return nil
}

// Stats accumulates access and miss counts for one cache.
type Stats struct {
	// Accesses is the number of line-granular accesses presented
	// (Reads + Writes; Cache.Stats derives it).
	Accesses uint64
	// Reads and Writes split Accesses by direction (instruction fetches
	// count as reads).
	Reads, Writes uint64
	// Misses is the number of accesses that missed.
	Misses uint64
	// Compulsory, Capacity, and Conflict partition Misses when
	// classification is enabled; all zero otherwise.
	Compulsory, Capacity, Conflict uint64
	// Writebacks counts dirty lines evicted.
	Writebacks uint64
	// Prefetches counts next-line fetches issued (when enabled).
	Prefetches uint64
}

// MissRate returns misses per access as a percentage, 0 if no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 100 * float64(s.Misses) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Misses += other.Misses
	s.Compulsory += other.Compulsory
	s.Capacity += other.Capacity
	s.Conflict += other.Conflict
	s.Writebacks += other.Writebacks
	s.Prefetches += other.Prefetches
}

// line is one way of a set. Within a set, ways are ordered by recency
// (index 0 is the most recent), and the valid ways form a prefix:
// allocation fills the first invalid way and Invalidate closes the hole
// it leaves.
type line struct {
	ln    uint64 // line number (address >> log2(LineSize))
	valid bool
	dirty bool
}

// Cache is a single simulated cache level.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	wayShift  uint   // log2(ways); Validate makes every associativity a power of two
	nextLine  bool   // tagged next-line prefetch on demand misses
	lines     []line // every set's ways in one slab: set s is lines[s<<wayShift:][:ways]
	stats     Stats

	// classification state, nil unless cfg.Classify
	shadow *lruTable
	seen   seenSet
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ways := uint64(cfg.Assoc)
	if cfg.Assoc == 0 {
		ways = cfg.Lines()
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros64(cfg.LineSize)),
		setMask:   cfg.Sets() - 1,
		wayShift:  uint(bits.TrailingZeros64(ways)),
		nextLine:  cfg.Prefetch,
		lines:     make([]line, cfg.Lines()),
	}
	if cfg.Classify {
		c.shadow = newLRUTable(int(cfg.Lines()))
		c.seen.init()
	}
	return c, nil
}

// MustNew is New, panicking on configuration errors; for use with the
// fixed machine-model configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the current counters. Accesses is derived
// rather than counted: every access is a read or a write.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Accesses = s.Reads + s.Writes
	return s
}

// Access presents one line-granular access (the address may be any byte in
// the line). It returns true on a hit. On a miss the line is allocated
// (write-allocate), possibly evicting the LRU line of the set.
func (c *Cache) Access(addr uint64, write bool) bool { return c.access(addr>>c.lineShift, write) }

// set returns the ways of the set line ln maps to. Masking the shift
// tells the compiler it is below 64, which drops the fix-up Go's shift
// semantics need for larger counts from every access; mruHit does the
// same.
func (c *Cache) set(ln uint64) []line {
	base := (ln & c.setMask) << (c.wayShift & 63)
	return c.lines[base : base+1<<(c.wayShift&63)]
}

// access presents one access to line ln and reports whether it hit. It
// is the whole per-access path of a cache level, behind every entry
// point: the counters and the shadow touch a classified cache needs,
// then way 0 of the set, whose hit reorders nothing, then the other ways
// with the LRU refresh. The miss half is out of line in miss, so the hit
// path stays short.
func (c *Cache) access(ln uint64, write bool) bool {
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	shadowHit := c.shadow == nil || c.shadow.isHead(ln) || c.shadow.touch(ln)
	set := c.set(ln)
	if w := &set[0]; w.valid && w.ln == ln {
		if write {
			w.dirty = true
		}
		return true
	}
	for i := 1; i < len(set); i++ {
		if set[i].valid && set[i].ln == ln {
			// Refresh to the MRU position.
			dirty := set[i].dirty || write
			shiftDown(set[:i+1])
			set[0] = line{ln: ln, valid: true, dirty: dirty}
			return true
		}
	}
	c.miss(set, ln, write, shadowHit)
	return false
}

// mruHit is the inlinable pre-check the hierarchy makes before calling
// access on a first-level cache: it resolves an access that hits way 0
// of its set, reporting false (having changed nothing) for every other
// access. Such a hit changes only the read/write counters and the dirty
// bit: LRU would move way 0 to way 0. A classified cache must also leave
// its shadow fully-associative model unchanged, which holds only when ln
// is already the shadow's most recent line.
func (c *Cache) mruHit(ln uint64, write bool) bool {
	w := &c.lines[(ln&c.setMask)<<(c.wayShift&63)]
	if !w.valid || w.ln != ln || c.shadow != nil && !c.shadow.isHead(ln) {
		return false
	}
	if write {
		c.stats.Writes++
		w.dirty = true
	} else {
		c.stats.Reads++
	}
	return true
}

// miss completes an access to line ln that no way of set holds: the miss
// counters and classification, then allocation and next-line prefetch.
// shadowHit is the classification shadow's verdict on ln.
func (c *Cache) miss(set []line, ln uint64, write, shadowHit bool) {
	c.stats.Misses++
	if c.shadow != nil {
		if !c.seen.testAndSet(ln) {
			c.stats.Compulsory++
		} else if !shadowHit {
			c.stats.Capacity++
		} else {
			c.stats.Conflict++
		}
	}
	c.allocate(set, ln, write)
	// The last line of the address space has no next line: ln+1 would
	// wrap to line 0 (1-byte lines) or name a line no address maps to.
	if c.nextLine && ln != ^uint64(0)>>c.lineShift {
		c.prefetch(ln + 1)
	}
}

// prefetch installs line ln if absent, without touching demand counters.
func (c *Cache) prefetch(ln uint64) {
	set := c.set(ln)
	if find(set, ln) >= 0 {
		return
	}
	c.stats.Prefetches++
	c.allocate(set, ln, false)
}

// allocate installs line ln at the head of its set, evicting the LRU
// tail.
func (c *Cache) allocate(set []line, ln uint64, dirty bool) {
	c.evict(set[len(set)-1])
	shiftDown(set)
	set[0] = line{ln: ln, valid: true, dirty: dirty}
}

// evict accounts a victim's eviction: a writeback if it is dirty (an
// invalid way is never dirty).
func (c *Cache) evict(victim line) {
	if victim.dirty {
		c.stats.Writebacks++
	}
}

// shiftDown moves each way of ways one position toward the tail,
// overwriting the last and leaving the first to be replaced. Sets are a
// few ways long, where a plain loop beats copy's call to memmove.
func shiftDown(ways []line) {
	for i := len(ways) - 1; i > 0; i-- {
		ways[i] = ways[i-1]
	}
}

// find returns the index of the way holding line ln in set, or -1.
func find(set []line, ln uint64) int {
	for i := range set {
		if set[i].valid && set[i].ln == ln {
			return i
		}
	}
	return -1
}

// Contains reports whether the line holding addr is currently resident.
// It does not disturb LRU state; intended for tests and invariants.
func (c *Cache) Contains(addr uint64) bool {
	ln := addr >> c.lineShift
	return find(c.set(ln), ln) >= 0
}

// ResidentLines returns the set of line numbers currently cached; for
// tests and invariants.
func (c *Cache) ResidentLines() map[uint64]bool {
	out := make(map[uint64]bool)
	for _, l := range c.lines {
		if l.valid {
			out[l.ln] = true
		}
	}
	return out
}

// Invalidate removes the line holding addr if resident, returning whether
// it was present. Used by the SMP coherence model; invalidated dirty
// lines count as writebacks (they would be flushed or transferred). The
// later ways shift up over the hole, which becomes the set's tail: the
// valid lines keep their order, and the next allocation into the set
// fills the hole instead of evicting a valid line.
func (c *Cache) Invalidate(addr uint64) bool {
	ln := addr >> c.lineShift
	set := c.set(ln)
	i := find(set, ln)
	if i < 0 {
		return false
	}
	c.evict(set[i])
	copy(set[i:], set[i+1:])
	set[len(set)-1] = line{}
	return true
}

// Reset clears cache contents and counters, including classification
// history (so the next touch of any line is compulsory again).
func (c *Cache) Reset() {
	clear(c.lines)
	c.stats = Stats{}
	if c.cfg.Classify {
		c.shadow = newLRUTable(int(c.cfg.Lines()))
		c.seen.init()
	}
}
