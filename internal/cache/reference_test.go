package cache

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refCache is a deliberately naive model of one cache level, sharing no
// code with Cache: per set, a slice of resident lines ordered most
// recent first, plus — when classifying — a fully-associative LRU list
// and a set of every line ever missed on. Line and set numbers come from division and modulo
// rather than shifts and masks. The real Cache must agree with it
// access for access.
type refCache struct {
	cfg   Config
	sets  [][]refLine
	ways  int
	fa    []uint64 // classification shadow, most recent first
	seen  map[uint64]bool
	stats Stats
}

type refLine struct {
	ln    uint64
	dirty bool
}

func newRefCache(cfg Config) *refCache {
	ways := cfg.Assoc
	if ways <= 0 {
		ways = int(cfg.Lines())
	}
	return &refCache{
		cfg:  cfg,
		sets: make([][]refLine, cfg.Sets()),
		ways: ways,
		seen: make(map[uint64]bool),
	}
}

func (r *refCache) setOf(ln uint64) *[]refLine { return &r.sets[ln%uint64(len(r.sets))] }

func (r *refCache) access(addr uint64, write bool) bool {
	ln := addr / r.cfg.LineSize
	r.stats.Accesses++
	if write {
		r.stats.Writes++
	} else {
		r.stats.Reads++
	}
	shadowHit := r.touchShadow(ln)
	set := r.setOf(ln)
	for i, l := range *set {
		if l.ln != ln {
			continue
		}
		l.dirty = l.dirty || write
		*set = slices.Insert(slices.Delete(*set, i, i+1), 0, l)
		return true
	}
	r.stats.Misses++
	if r.cfg.Classify {
		switch {
		case !r.seen[ln]:
			r.stats.Compulsory++
		case !shadowHit:
			r.stats.Capacity++
		default:
			r.stats.Conflict++
		}
		r.seen[ln] = true
	}
	r.insert(ln, write)
	// The last line of the address space has no next line to prefetch.
	if next := ln + 1; r.cfg.Prefetch && ln != ^uint64(0)/r.cfg.LineSize && !r.resident(next) {
		r.stats.Prefetches++
		r.insert(next, false)
	}
	return false
}

// touchShadow moves ln to the front of the fully-associative list,
// reporting whether it was already there; a no-op reporting true when
// classification is off.
func (r *refCache) touchShadow(ln uint64) bool {
	if !r.cfg.Classify {
		return true
	}
	i := slices.Index(r.fa, ln)
	if i >= 0 {
		r.fa = slices.Delete(r.fa, i, i+1)
	}
	r.fa = slices.Insert(r.fa, 0, ln)
	if len(r.fa) > int(r.cfg.Lines()) {
		r.fa = r.fa[:len(r.fa)-1]
	}
	return i >= 0
}

func (r *refCache) insert(ln uint64, dirty bool) {
	set := r.setOf(ln)
	*set = slices.Insert(*set, 0, refLine{ln: ln, dirty: dirty})
	if len(*set) > r.ways {
		if (*set)[r.ways].dirty {
			r.stats.Writebacks++
		}
		*set = (*set)[:r.ways]
	}
}

func (r *refCache) resident(ln uint64) bool {
	return slices.ContainsFunc(*r.setOf(ln), func(l refLine) bool { return l.ln == ln })
}

func (r *refCache) invalidate(addr uint64) bool {
	ln := addr / r.cfg.LineSize
	set := r.setOf(ln)
	i := slices.IndexFunc(*set, func(l refLine) bool { return l.ln == ln })
	if i < 0 {
		return false
	}
	if (*set)[i].dirty {
		r.stats.Writebacks++
	}
	*set = slices.Delete(*set, i, i+1)
	return true
}

func (r *refCache) residentLines() map[uint64]bool {
	out := make(map[uint64]bool)
	for _, set := range r.sets {
		for _, l := range set {
			out[l.ln] = true
		}
	}
	return out
}

// refOp is one operation of a differential stream.
type refOp struct {
	addr uint64
	kind uint8 // opRead, opWrite or opInvalidate
}

const (
	opRead = iota
	opWrite
	opInvalidate
)

// checkAgainstReference runs ops through a Cache and the naive model
// built from cfg, returning the first disagreement: a hit, an
// Invalidate result, the final counters or the final resident lines.
func checkAgainstReference(cfg Config, ops []refOp) error {
	real, err := New(cfg)
	if err != nil {
		return err
	}
	ref := newRefCache(cfg)
	for i, op := range ops {
		var got, want bool
		switch op.kind {
		case opInvalidate:
			got, want = real.Invalidate(op.addr), ref.invalidate(op.addr)
		default:
			write := op.kind == opWrite
			got, want = real.Access(op.addr, write), ref.access(op.addr, write)
		}
		if got != want {
			return fmt.Errorf("%v: op %d (kind %d, addr %#x) = %v, model %v", cfg, i, op.kind, op.addr, got, want)
		}
	}
	if got, want := real.Stats(), ref.stats; got != want {
		return fmt.Errorf("%v: stats %+v, model %+v", cfg, got, want)
	}
	if got, want := real.ResidentLines(), ref.residentLines(); !maps.Equal(got, want) {
		return fmt.Errorf("%v: resident %d lines, model %d", cfg, len(got), len(want))
	}
	return nil
}

// wideConfig builds a valid configuration from selector values: line
// sizes 1 B to 4 KiB, 1 to 64 lines, any associativity that divides the
// line count (0 = fully associative), and prefetch (policySel bit 0) and
// classification (bit 1) on or off.
func wideConfig(lineSel, linesSel, assocSel, policySel uint8) Config {
	lineSize := uint64(1) << (lineSel % 13)
	lines := uint64(1) << (linesSel % 7)
	assoc := []int{0, 1, 2, 4, 8}[assocSel%5]
	if uint64(assoc) > lines {
		assoc = int(lines)
	}
	return Config{
		Name:     "T",
		Size:     lineSize * lines,
		LineSize: lineSize,
		Assoc:    assoc,
		Prefetch: policySel&1 == 1,
		Classify: policySel>>1&1 == 1,
	}
}

// addrBases seeds address streams across the whole 64-bit space: low
// addresses, both sides of 2^62 and 2^63, and the last lines below 2^64
// (where a line number is as large as a Cache can hold).
var addrBases = [...]uint64{0, 1 << 20, 1<<62 - 1<<12, 1 << 62, 1<<63 + 1<<40, 1<<64 - 1<<16, 1<<64 - 1<<8}

// Property: the production cache matches the naive model access by
// access — hits, misses, and writeback counts — for random geometries and
// streams.
func TestCacheMatchesReferenceModelProperty(t *testing.T) {
	f := func(seed int64, sizeSel, lineSel, assocSel uint8) bool {
		lineSize := uint64(16) << (lineSel % 3)           // 16/32/64
		size := lineSize * 8 << (sizeSel % 4)             // 8..64 lines
		assoc := []int{1, 2, 4, 0}[assocSel%4]            // incl. fully assoc
		if assoc > 0 && size/lineSize < uint64(assoc)*2 { // keep ≥2 sets
			assoc = 1
		}
		cfg := Config{Name: "T", Size: size, LineSize: lineSize, Assoc: assoc}
		if cfg.Validate() != nil {
			return true // skip impossible geometry draws
		}
		rng := rand.New(rand.NewSource(seed))
		ops := make([]refOp, 3000)
		for i := range ops {
			ops[i].addr = uint64(rng.Intn(int(size * 4)))
			if rng.Intn(3) == 0 {
				ops[i].kind = opWrite
			}
		}
		if err := checkAgainstReference(cfg, ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the same agreement holds on run-heavy streams — bursts of
// consecutive accesses to one line with mixed reads and writes, the
// pattern the MRU-way check resolves without a set search — including
// conflicting allocations between and within bursts that move the line
// off way 0.
func TestCacheFastPathMatchesReferenceOnRuns(t *testing.T) {
	f := func(seed int64, assocSel uint8) bool {
		cfg := Config{Name: "T", Size: 1 << 12, LineSize: 64,
			Assoc: []int{1, 2, 4, 0}[assocSel%4]}
		rng := rand.New(rand.NewSource(seed))
		var ops []refOp
		for i := 0; i < 800; i++ {
			base := uint64(rng.Intn(1 << 14))
			runLen := 1 + rng.Intn(20)
			for j := 0; j < runLen; j++ {
				addr := base + uint64(rng.Intn(int(cfg.LineSize)))
				if rng.Intn(4) == 0 { // occasional conflicting line mid-run
					addr += cfg.Size * uint64(1+rng.Intn(3))
				}
				kind := uint8(opRead)
				if rng.Intn(3) == 0 {
					kind = opWrite
				}
				ops = append(ops, refOp{addr: addr, kind: kind})
			}
		}
		if err := checkAgainstReference(cfg, ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: agreement over every option the model knows — prefetch and
// classification — with
// invalidations mixed in, line sizes from 1 byte to 4 KiB, and addresses
// from the whole 64-bit range.
func TestCacheMatchesReferenceWidePolicies(t *testing.T) {
	f := func(seed int64, lineSel, linesSel, assocSel, policySel uint8) bool {
		cfg := wideConfig(lineSel, linesSel, assocSel, policySel)
		rng := rand.New(rand.NewSource(seed))
		// A handful of hot lines per base, spread over a few sets' worth
		// of addresses, so streams hit, conflict and evict.
		span := int64(cfg.Size) * 4
		ops := make([]refOp, 2000)
		for i := range ops {
			base := addrBases[rng.Intn(len(addrBases))]
			ops[i] = refOp{
				addr: base + uint64(rng.Int63n(span)),
				kind: []uint8{opRead, opRead, opWrite, opInvalidate}[rng.Intn(4)],
			}
		}
		if err := checkAgainstReference(cfg, ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzCacheMatchesReference checks Cache against the naive model over
// fuzzed geometry, policy and operation streams. Each operation takes
// three bytes: the first picks the kind (low two bits: read, read,
// write, invalidate), an address base (next three bits, salt included)
// and a scale (top three bits) for the 16-bit offset in the other two.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(2), uint8(0), uint64(0), []byte{0, 1, 0, 2, 1, 0, 3, 1, 0, 0, 9, 0})
	f.Add(uint8(0), uint8(2), uint8(0), uint8(15), uint64(1<<64-1), []byte{0xff, 0xff, 0xff, 0x1e, 0xfe, 0xff, 0x1c, 0xff, 0xff})
	f.Add(uint8(12), uint8(6), uint8(4), uint8(6), uint64(1<<62), []byte{0x20, 0, 0, 0x42, 0, 1, 0x63, 0, 1, 0x20, 0, 2})
	f.Fuzz(func(t *testing.T, lineSel, linesSel, assocSel, policySel uint8, salt uint64, data []byte) {
		cfg := wideConfig(lineSel, linesSel, assocSel, policySel)
		bases := append(addrBases[:], salt) // eight bases
		var ops []refOp
		for ; len(data) >= 3; data = data[3:] {
			b := data[0]
			offset := (uint64(data[1]) | uint64(data[2])<<8) << (b >> 5)
			ops = append(ops, refOp{
				addr: bases[b>>2&7] + offset,
				kind: []uint8{opRead, opRead, opWrite, opInvalidate}[b&3],
			})
		}
		if err := checkAgainstReference(cfg, ops); err != nil {
			t.Fatal(err)
		}
	})
}
