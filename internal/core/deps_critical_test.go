package core

import (
	"sync"
	"testing"
)

// TestComputeHeights pins the height definition on a known DAG: height is
// the longest dependence path below a thread (leaves are 0).
func TestComputeHeights(t *testing.T) {
	d := NewDep(Config{CacheSize: 1 << 20})
	defer d.Close()
	nop := func(int, int) {}
	// A chain 0 -> 1 -> 2 -> 3 plus leaves 4, 5, and a diamond 0 -> (1, 6) -> 7.
	id0 := d.Fork(nop, 0, 0, 0, 0, 0)
	id1 := d.Fork(nop, 1, 0, 0, 0, 0, id0)
	id2 := d.Fork(nop, 2, 0, 0, 0, 0, id1)
	d.Fork(nop, 3, 0, 0, 0, 0, id2)
	d.Fork(nop, 4, 0, 0, 0, 0)
	d.Fork(nop, 5, 0, 0, 0, 0)
	id6 := d.Fork(nop, 6, 0, 0, 0, 0, id0)
	d.Fork(nop, 7, 0, 0, 0, 0, id1, id6)
	d.computeHeights()
	want := []int32{3, 2, 1, 0, 0, 0, 1, 0}
	for id, h := range want {
		if d.heights[id] != h {
			t.Errorf("height[%d] = %d, want %d", id, d.heights[id], h)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCriticalPathFirstSerialOrder forks a long chain into a late bin and
// independent leaves into early bins; with CriticalPathFirst the chain's
// bin drains first every round, so the chain head runs before any leaf.
func TestCriticalPathFirstSerialOrder(t *testing.T) {
	d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, CriticalPathFirst: true})
	defer d.Close()
	var order []int
	rec := func(a1, _ int) { order = append(order, a1) }
	// Leaves first into bins 0 and 1 (allocation order would run them first).
	for i := 0; i < 6; i++ {
		d.Fork(rec, 100+i, 0, uint64(i%2)<<12, 0, 0)
	}
	// A 4-deep chain in bin 2, forked last.
	prev := d.Fork(rec, 0, 0, 2<<12, 0, 0)
	for i := 1; i < 4; i++ {
		prev = d.Fork(rec, i, 0, 2<<12, 0, 0, prev)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("ran %d threads, want 10", len(order))
	}
	if order[0] != 0 {
		t.Fatalf("first executed thread = arg %d, want chain head 0 (order %v)", order[0], order)
	}
}

// TestCriticalPathFirstEquivalence checks the opt-in changes only order:
// serial and parallel runs with CriticalPathFirst execute every thread
// exactly once and respect all dependence edges.
func TestCriticalPathFirstEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12,
			Workers: workers, CriticalPathFirst: true})
		const n = 800
		var mu sync.Mutex
		done := make([]bool, n)
		var deps []ThreadID
		for i := 0; i < n; i++ {
			i := i
			var pre []ThreadID
			if i >= 3 && i%3 != 0 {
				pre = append(pre, deps[i-3])
			}
			if i >= 7 && i%7 == 0 {
				pre = append(pre, deps[i-7])
			}
			id := d.Fork(func(int, int) {
				mu.Lock()
				defer mu.Unlock()
				for _, p := range pre {
					if !done[p] {
						t.Errorf("thread %d ran before dependence %d", i, p)
					}
				}
				done[i] = true
			}, i, 0, uint64(i%13)<<12, 0, 0, pre...)
			deps = append(deps, id)
		}
		if err := d.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		d.Close()
		for i, ok := range done {
			if !ok {
				t.Fatalf("workers=%d: thread %d never ran", workers, i)
			}
		}
	}
}

// TestCriticalPathFirstOffUnchanged guards the default: with the knob off
// no heights are computed and the serial executor keeps allocation order.
func TestCriticalPathFirstOffUnchanged(t *testing.T) {
	d := NewDep(Config{CacheSize: 1 << 20, BlockSize: 1 << 12})
	defer d.Close()
	var order []int
	for i := 0; i < 5; i++ {
		d.Fork(func(a1, _ int) { order = append(order, a1) }, i, 0, uint64(4-i)<<12, 0, 0)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, a := range order {
		if a != i {
			t.Fatalf("allocation order perturbed: %v", order)
		}
	}
	if d.heights != nil {
		t.Fatal("heights computed with CriticalPathFirst off")
	}
}
