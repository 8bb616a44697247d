package sim

import (
	"context"

	"threadsched/internal/cache"
	"threadsched/internal/trace"
)

// ShardedHierarchy replays a recorded trace against W independent cache
// hierarchies in parallel, partitioned by address class (see
// cache.SliceRouter). Each shard is a full cache.Hierarchy that consumes
// exactly the references routed to its slice, in global file order —
// per-set LRU state depends only on that set's reference
// subsequence, so the merged counters are bit-identical to a serial
// replay of the same trace, not an approximation.
//
// The construction rejects configurations whose simulation is not
// address-separable (miss classification, prefetch, no common set bits;
// see cache.ErrUnsliceable), and sliced hierarchies never carry a page
// table or TLB: translation and a global TLB stack couple state across
// address classes.
type ShardedHierarchy struct {
	cfg    cache.HierarchyConfig
	router *cache.SliceRouter
	shards []*cache.Hierarchy
	tally  trace.Counts
}

// NewShardedHierarchy builds a sharded hierarchy with up to slices shards
// (clamped to the configuration's address-class count; slices must be
// >= 1). It returns an error wrapping cache.ErrUnsliceable when cfg
// cannot be sliced.
func NewShardedHierarchy(cfg cache.HierarchyConfig, slices int) (*ShardedHierarchy, error) {
	router, err := cache.NewSliceRouter(cfg, slices)
	if err != nil {
		return nil, err
	}
	shards := make([]*cache.Hierarchy, router.Slices())
	for i := range shards {
		h, err := cache.NewHierarchy(cfg, nil)
		if err != nil {
			return nil, err
		}
		shards[i] = h
	}
	return &ShardedHierarchy{cfg: cfg, router: router, shards: shards}, nil
}

// Slices returns the effective shard count.
func (s *ShardedHierarchy) Slices() int { return len(s.shards) }

// Shard exposes one shard's hierarchy; for tests and invariants.
func (s *ShardedHierarchy) Shard(i int) *cache.Hierarchy { return s.shards[i] }

// Replay consumes the whole trace: chunks decode across workers (<= 0
// selects GOMAXPROCS), the coordinator routes each reference to its
// shard, and the shards simulate concurrently. Any prior state is cleared
// first. On error — a decode error typed exactly as the serial reader
// types it, or a consumer failure — all shard state is reset so no
// partial statistics survive, and the error is returned.
func (s *ShardedHierarchy) Replay(f *trace.MemFile, workers int) error {
	return s.ReplayContext(context.Background(), f, workers)
}

// ReplayContext is Replay bounded by ctx: the coordinator checks the
// context once per scattered chunk, so a cancelled replay stops within
// one decode chunk, resets all shard state, and returns ctx's error. A
// replay that stalls while a consumer is blocked mid-chunk is bounded by
// the same chunk granularity — the scatter callback runs between chunks,
// and the fan's queues drain once the coordinator stops feeding them.
func (s *ShardedHierarchy) ReplayContext(ctx context.Context, f *trace.MemFile, workers int) error {
	s.Reset()
	err := f.ForEachSliced(workers, len(s.shards),
		func(fan *trace.SliceFan, refs []trace.Ref) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			s.router.Scatter(refs, &s.tally, fan.Emit)
			return nil
		},
		func(slice int, refs []trace.Ref) error {
			s.shards[slice].RecordBatch(refs)
			return nil
		})
	if err != nil {
		s.Reset()
		return err
	}
	return nil
}

// Merged returns a fresh hierarchy holding the combined counters of all
// shards, with the reference tally taken from the router (shards observe
// split pieces of spanning references; the router tallies each original
// reference once). The result is stats-only: its cache contents are
// empty, so it reports but must not continue simulation.
func (s *ShardedHierarchy) Merged() *cache.Hierarchy {
	m := cache.MustNewHierarchy(s.cfg, nil)
	for _, sh := range s.shards {
		if err := m.Merge(sh); err != nil {
			panic(err) // identical configs by construction
		}
	}
	m.SetRefs(s.tally)
	return m
}

// Summarize condenses the merged counters into the paper's table rows.
func (s *ShardedHierarchy) Summarize() cache.Summary { return s.Merged().Summarize() }

// Refs returns the tally of original references routed so far.
func (s *ShardedHierarchy) Refs() trace.Counts { return s.tally }

// Reset clears every shard and the reference tally.
func (s *ShardedHierarchy) Reset() {
	for _, sh := range s.shards {
		sh.Reset()
	}
	s.tally = trace.Counts{}
}
