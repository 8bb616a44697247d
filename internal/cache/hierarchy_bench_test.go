package cache_test

import (
	"sync"
	"testing"

	"threadsched/internal/apps/matmul"
	"threadsched/internal/cache"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// refLog collects a reference stream in memory.
type refLog []trace.Ref

func (l *refLog) Record(r trace.Ref) { *l = append(*l, r) }

var (
	matmulOnce sync.Once
	matmulRefs refLog
)

// threadedMatmulRefs is the reference stream of the threaded matmul at
// n=64 under the R8000/16 scheduler geometry: ~0.6M instruction fetches,
// loads and stores, the mix every paper table feeds the hierarchy.
func threadedMatmulRefs() []trace.Ref {
	matmulOnce.Do(func() {
		cpu := sim.NewCPU(&matmulRefs)
		as := vm.NewAddressSpace()
		tr := matmul.NewTraced(cpu, as, 64)
		l2 := machine.R8000().Scaled(16).L2CacheSize()
		tr.Threaded(sim.NewThreads(cpu, as, matmul.ThreadedScheduler(l2)))
	})
	return matmulRefs
}

// BenchmarkHierarchyRecord measures the simulator's per-reference cost on
// the three machine models at /16, the geometry the scaled tables and
// tracesim -scale 16 use. The stream is fed in trace.DefaultChunk-sized
// batches, each small enough to stay resident in the host's cache, as
// the pipeline and the trace reader deliver it; one op is one reference.
func BenchmarkHierarchyRecord(b *testing.B) {
	refs := threadedMatmulRefs()
	for _, m := range []machine.Machine{machine.R8000(), machine.R10000(), machine.Modern()} {
		b.Run(m.Name, func(b *testing.B) {
			h := cache.MustNewHierarchy(m.Scaled(16).Caches, nil)
			b.ReportAllocs()
			b.ResetTimer()
			pos := 0
			for done := 0; done < b.N; {
				n := min(trace.DefaultChunk, b.N-done, len(refs)-pos)
				h.RecordBatch(refs[pos : pos+n])
				done += n
				if pos += n; pos == len(refs) {
					pos = 0
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ref")
		})
	}
}
