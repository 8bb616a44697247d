package cache_test

import (
	"sync"
	"testing"

	"threadsched/internal/apps/matmul"
	"threadsched/internal/apps/pde"
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
	pdeOnce    sync.Once
	pdeRefs    refLog
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

// quickPDERefs is one iteration of the regular PDE solver at the quick
// tables' n=257: ~1.1M references, over half of which miss the R8000/64
// first level, the miss-heavy mix of the quick tables.
func quickPDERefs() []trace.Ref {
	pdeOnce.Do(func() {
		cpu := sim.NewCPU(&pdeRefs)
		pde.NewTracedGrid(cpu, vm.NewAddressSpace(), 257).Regular(1)
	})
	return pdeRefs
}

// BenchmarkHierarchyRecord measures the simulator's per-reference cost on
// the three machine models at /16, the geometry the scaled tables and
// tracesim -scale 16 use, and on the R8000 at /64, the quick tables'
// geometry, fed the quick PDE stream. The stream is fed in
// trace.DefaultChunk-sized batches, each small enough to stay resident
// in the host's cache, as the pipeline and the trace reader deliver it;
// one op is one reference.
func BenchmarkHierarchyRecord(b *testing.B) {
	for _, m := range []machine.Machine{machine.R8000(), machine.R10000(), machine.Modern()} {
		b.Run(m.Name, func(b *testing.B) {
			benchRecord(b, m.Scaled(16).Caches, threadedMatmulRefs())
		})
	}
	b.Run("R8000-quick-pde", func(b *testing.B) {
		benchRecord(b, machine.R8000().Scaled(64).Caches, quickPDERefs())
	})
}

// benchRecord feeds b.N references of refs, cycling, to a hierarchy
// built from cfg, and reports ns/ref and first-level misses per ref.
func benchRecord(b *testing.B, cfg cache.HierarchyConfig, refs []trace.Ref) {
	h := cache.MustNewHierarchy(cfg, nil)
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
	b.ReportMetric(float64(h.Summarize().L1Misses)/float64(b.N), "l1miss/ref")
}
