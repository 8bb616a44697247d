// Package arena recycles the large slices a run of simulation jobs
// allocates — workload arrays and reference-chunk buffers — so that jobs
// running one after another, or two at a time, reuse the memory of the
// jobs before them instead of each leaving its own behind as garbage.
//
// A Pool holds free slices keyed by length and is safe for concurrent
// use. A Lease draws from a Pool on behalf of one job: it is used from one
// goroutine at a time, and Release hands every slice it gave out back to
// the Pool at once, when the job is done with all of them. A nil *Lease
// allocates with make and its Release does nothing, so code that takes a
// lease behaves exactly as before when it is given none.
package arena

import "sync"

// Pool is a set of free lists of []T, one per slice length. The zero
// value is an empty pool; a Pool is dropped, not drained, when the jobs
// sharing it are done.
type Pool[T any] struct {
	mu   sync.Mutex
	free map[int][][]T
}

// Lease returns an empty lease drawing from p.
func (p *Pool[T]) Lease() *Lease[T] { return &Lease[T]{pool: p} }

// get pops a free slice of length n, zeroed, or allocates one.
func (p *Pool[T]) get(n int) []T {
	p.mu.Lock()
	list := p.free[n]
	if k := len(list); k > 0 {
		s := list[k-1]
		list[k-1] = nil
		p.free[n] = list[:k-1]
		p.mu.Unlock()
		clear(s)
		return s
	}
	p.mu.Unlock()
	return make([]T, n)
}

// put returns slices to their free lists at full capacity.
func (p *Pool[T]) put(out [][]T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[int][][]T)
	}
	for _, s := range out {
		s = s[:cap(s)]
		p.free[len(s)] = append(p.free[len(s)], s)
	}
}

// Lease is one job's draw on a Pool.
type Lease[T any] struct {
	pool *Pool[T]
	out  [][]T
}

// Make returns a zeroed slice of length and capacity n, recycled from the
// pool when it holds one of that length. The slice belongs to the caller
// until Release.
func (l *Lease[T]) Make(n int) []T {
	if l == nil {
		return make([]T, n)
	}
	s := l.pool.get(n)
	l.out = append(l.out, s)
	return s
}

// Release hands every slice Make returned back to the pool. The caller
// must hold no reference to any of them afterwards: the next Make of the
// same length may return it to another job.
func (l *Lease[T]) Release() {
	if l == nil || len(l.out) == 0 {
		return
	}
	l.pool.put(l.out)
	l.out = nil
}
