package cache

import "math/bits"

// lruTable is a fully-associative LRU set of line numbers with a fixed
// capacity, used as the shadow model for capacity-miss classification. It
// is a hash table from line number to node index plus an intrusive doubly
// linked recency list, so both hit and miss paths are O(1). The index is
// an open-addressing table rather than a Go map: the table is probed once
// per access to the classified cache, and linear probing over a flat slab
// is several times cheaper than a map lookup on that path.
type lruTable struct {
	capacity int
	index    lruIndex
	nodes    []lruNode
	head     int32 // most recently used
	tail     int32 // least recently used
	free     int32 // head of free list (linked through next)
}

type lruNode struct {
	line       uint64
	prev, next int32
}

const nilNode = int32(-1)

func newLRUTable(capacity int) *lruTable {
	if capacity < 1 {
		capacity = 1
	}
	t := &lruTable{
		capacity: capacity,
		nodes:    make([]lruNode, capacity),
		head:     nilNode,
		tail:     nilNode,
	}
	t.index.init(capacity)
	// Thread the free list through the node slab.
	for i := range t.nodes {
		t.nodes[i].next = int32(i + 1)
	}
	t.nodes[capacity-1].next = nilNode
	t.free = 0
	return t
}

// touch records a reference to line ln, returning true if it was resident
// (a shadow hit). On a miss the line is inserted, evicting the LRU entry
// if the table is full.
func (t *lruTable) touch(ln uint64) bool {
	if idx, ok := t.index.get(ln); ok {
		t.moveToFront(idx)
		return true
	}
	idx := t.free
	if idx == nilNode {
		// Evict LRU.
		idx = t.tail
		t.index.del(t.nodes[idx].line)
		t.unlink(idx)
	} else {
		t.free = t.nodes[idx].next
	}
	t.nodes[idx].line = ln
	t.pushFront(idx)
	t.index.put(ln, idx)
	return false
}

// isHead reports whether ln is the most recently used line, the one line
// whose touch changes nothing.
func (t *lruTable) isHead(ln uint64) bool {
	return t.head != nilNode && t.nodes[t.head].line == ln
}

// contains reports residency without touching recency; for tests.
func (t *lruTable) contains(ln uint64) bool {
	_, ok := t.index.get(ln)
	return ok
}

// len returns the number of resident lines.
func (t *lruTable) len() int { return t.index.n }

func (t *lruTable) unlink(idx int32) {
	n := &t.nodes[idx]
	if n.prev != nilNode {
		t.nodes[n.prev].next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nilNode {
		t.nodes[n.next].prev = n.prev
	} else {
		t.tail = n.prev
	}
}

func (t *lruTable) pushFront(idx int32) {
	n := &t.nodes[idx]
	n.prev = nilNode
	n.next = t.head
	if t.head != nilNode {
		t.nodes[t.head].prev = idx
	}
	t.head = idx
	if t.tail == nilNode {
		t.tail = idx
	}
}

func (t *lruTable) moveToFront(idx int32) {
	if t.head == idx {
		return
	}
	t.unlink(idx)
	t.pushFront(idx)
}

// lruIndex maps line number -> node index with open addressing and linear
// probing. Capacity is fixed (the shadow model never outgrows the cache's
// line count), so the table is sized once for a load factor of at most
// one half and never rehashes. Deletion uses backward shifting, keeping
// probe chains tombstone-free.
type lruIndex struct {
	slots []lruSlot
	mask  uint64
	shift uint // 64 - log2(len(slots)), for the multiplicative hash
	n     int
}

type lruSlot struct {
	key uint64
	val int32 // nilNode = empty
}

func (ix *lruIndex) init(capacity int) {
	size := 4
	for size < capacity*2 {
		size <<= 1
	}
	ix.slots = make([]lruSlot, size)
	for i := range ix.slots {
		ix.slots[i].val = nilNode
	}
	ix.mask = uint64(size - 1)
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	ix.n = 0
}

// hash spreads line numbers (often sequential) with a Fibonacci multiply;
// the high bits drive the slot so adjacent lines do not chain.
func (ix *lruIndex) hash(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> ix.shift & ix.mask
}

func (ix *lruIndex) get(key uint64) (int32, bool) {
	for i := ix.hash(key); ; i = (i + 1) & ix.mask {
		s := ix.slots[i]
		if s.val == nilNode {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// put inserts key -> val; the caller guarantees key is absent.
func (ix *lruIndex) put(key uint64, val int32) {
	for i := ix.hash(key); ; i = (i + 1) & ix.mask {
		if ix.slots[i].val == nilNode {
			ix.slots[i] = lruSlot{key: key, val: val}
			ix.n++
			return
		}
	}
}

// del removes key; the caller guarantees key is present. Subsequent slots
// in the probe chain shift backward so lookups never need tombstones.
func (ix *lruIndex) del(key uint64) {
	i := ix.hash(key)
	for ix.slots[i].key != key || ix.slots[i].val == nilNode {
		i = (i + 1) & ix.mask
	}
	ix.n--
	for {
		j := (i + 1) & ix.mask
		for {
			s := ix.slots[j]
			if s.val == nilNode {
				// End of the chain: empty the vacated slot.
				ix.slots[i].val = nilNode
				return
			}
			// s can fill the hole only if its home position does not lie
			// strictly between the hole and its current slot (cyclically);
			// otherwise moving it would break its own probe chain.
			home := ix.hash(s.key)
			if (j-home)&ix.mask >= (j-i)&ix.mask {
				break
			}
			j = (j + 1) & ix.mask
		}
		ix.slots[i] = ix.slots[j]
		i = j
	}
}
