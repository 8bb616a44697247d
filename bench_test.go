// Benchmarks regenerating every table and figure of the paper's
// evaluation (at the Quick scaled geometry — run cmd/locality-bench for
// the larger default geometry or the paper's full sizes), plus ablation
// benchmarks for the design choices DESIGN.md calls out. Custom metrics
// carry the reproduced quantities: modelled seconds (sim_s), second-level
// capacity misses (L2cap), bins used.
package threadsched_test

import (
	"bytes"
	"context"
	"testing"

	"threadsched"
	"threadsched/internal/apps/nbody"
	"threadsched/internal/apps/sor"
	"threadsched/internal/cache"
	"threadsched/internal/core"
	"threadsched/internal/gpthreads"
	"threadsched/internal/harness"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/smp"
	"threadsched/internal/stealing"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// quick is the shared benchmark geometry.
func quick() harness.Config { return harness.Quick() }

// simulate runs one job at c, as a served job runs, failing b on error.
func simulate(b *testing.B, c harness.Config, spec harness.JobSpec) harness.SimResult {
	r, err := c.RunJob(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1ThreadOverhead measures the native fork+run cost of null
// threads — the reproduction of Table 1's microbenchmark (§4.1).
func BenchmarkTable1ThreadOverhead(b *testing.B) {
	s := threadsched.New(threadsched.Config{CacheSize: 2 << 20, BlockSize: 1 << 20})
	null := func(int, int) {}
	const batch = 4096
	// Warm the free lists: the paper measures steady-state overhead.
	for j := 0; j < batch; j++ {
		s.Fork(null, j, 0, uint64(j%16)<<20, uint64((j/16)%16)<<20, 0)
	}
	s.Run(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			s.Fork(null, j, 0, uint64(j%16)<<20, uint64((j/16)%16)<<20, 0)
		}
		s.Run(false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/thread")
}

// Table 2: matmul times, both machines.
func BenchmarkTable2MatmulTime(b *testing.B) {
	c := quick()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		un := simulate(b, c, harness.JobSpec{Kind: harness.JobMatmul, Variant: "interchanged"})
		th := simulate(b, c, harness.JobSpec{Kind: harness.JobMatmul, Variant: "threaded"})
		b.ReportMetric(un.Seconds(), "untiled_sim_s")
		b.ReportMetric(th.Seconds(), "threaded_sim_s")
		b.ReportMetric(un.Seconds()/th.Seconds(), "speedup")
	}
}

// Table 3: matmul miss classification.
func BenchmarkTable3MatmulMisses(b *testing.B) {
	c := quick()
	for i := 0; i < b.N; i++ {
		un := simulate(b, c, harness.JobSpec{Kind: harness.JobMatmul, Variant: "interchanged"})
		ti := simulate(b, c, harness.JobSpec{Kind: harness.JobMatmul, Variant: "tiled-interchanged"})
		th := simulate(b, c, harness.JobSpec{Kind: harness.JobMatmul, Variant: "threaded"})
		b.ReportMetric(float64(un.Summary.L2.Capacity), "untiled_L2cap")
		b.ReportMetric(float64(ti.Summary.L2.Capacity), "tiled_L2cap")
		b.ReportMetric(float64(th.Summary.L2.Capacity), "threaded_L2cap")
	}
}

// Table 4: PDE times.
func BenchmarkTable4PDETime(b *testing.B) {
	c := quick()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg := simulate(b, c, harness.JobSpec{Kind: harness.JobPDE, Variant: "regular"})
		cc := simulate(b, c, harness.JobSpec{Kind: harness.JobPDE, Variant: "cache-conscious"})
		th := simulate(b, c, harness.JobSpec{Kind: harness.JobPDE, Variant: "threaded"})
		b.ReportMetric(reg.Seconds(), "regular_sim_s")
		b.ReportMetric(cc.Seconds(), "cc_sim_s")
		b.ReportMetric(th.Seconds(), "threaded_sim_s")
	}
}

// Table 5: PDE miss classification.
func BenchmarkTable5PDEMisses(b *testing.B) {
	c := quick()
	for i := 0; i < b.N; i++ {
		reg := simulate(b, c, harness.JobSpec{Kind: harness.JobPDE, Variant: "regular"})
		th := simulate(b, c, harness.JobSpec{Kind: harness.JobPDE, Variant: "threaded"})
		b.ReportMetric(float64(reg.Summary.L2.Capacity), "regular_L2cap")
		b.ReportMetric(float64(th.Summary.L2.Capacity), "threaded_L2cap")
	}
}

// Table 6: SOR times.
func BenchmarkTable6SORTime(b *testing.B) {
	c := quick()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		un := simulate(b, c, harness.JobSpec{Kind: harness.JobSOR, Variant: "untiled"})
		ti := simulate(b, c, harness.JobSpec{Kind: harness.JobSOR, Variant: "hand-tiled"})
		th := simulate(b, c, harness.JobSpec{Kind: harness.JobSOR, Variant: "threaded"})
		b.ReportMetric(un.Seconds(), "untiled_sim_s")
		b.ReportMetric(ti.Seconds(), "tiled_sim_s")
		b.ReportMetric(th.Seconds(), "threaded_sim_s")
	}
}

// Table 7: SOR miss classification.
func BenchmarkTable7SORMisses(b *testing.B) {
	c := quick()
	for i := 0; i < b.N; i++ {
		un := simulate(b, c, harness.JobSpec{Kind: harness.JobSOR, Variant: "untiled"})
		th := simulate(b, c, harness.JobSpec{Kind: harness.JobSOR, Variant: "threaded"})
		b.ReportMetric(float64(un.Summary.L2.Capacity), "untiled_L2cap")
		b.ReportMetric(float64(th.Summary.L2.Capacity), "threaded_L2cap")
	}
}

// Table 8: N-body times.
func BenchmarkTable8NBodyTime(b *testing.B) {
	c := quick()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		un := simulate(b, c, harness.JobSpec{Kind: harness.JobNBody, Variant: "unthreaded"})
		th := simulate(b, c, harness.JobSpec{Kind: harness.JobNBody, Variant: "threaded"})
		b.ReportMetric(un.Seconds(), "unthreaded_sim_s")
		b.ReportMetric(th.Seconds(), "threaded_sim_s")
	}
}

// Table 9: N-body miss classification.
func BenchmarkTable9NBodyMisses(b *testing.B) {
	c := quick()
	for i := 0; i < b.N; i++ {
		un := simulate(b, c, harness.JobSpec{Kind: harness.JobNBody, Variant: "unthreaded", Steps: 1})
		th := simulate(b, c, harness.JobSpec{Kind: harness.JobNBody, Variant: "threaded", Steps: 1})
		b.ReportMetric(float64(un.Summary.L2.Capacity), "unthreaded_L2cap")
		b.ReportMetric(float64(th.Summary.L2.Capacity), "threaded_L2cap")
		b.ReportMetric(float64(th.Sched.Bins), "bins")
	}
}

// Figure 4: block-size sweep (reported as modelled seconds at the sweep's
// two extremes plus the optimum).
func BenchmarkFigure4BlockSweep(b *testing.B) {
	c := quick()
	l2 := c.R8000().L2CacheSize()
	for i := 0; i < b.N; i++ {
		small := simulate(b, c, harness.JobSpec{Kind: harness.JobMatmul, Block: l2 / 32})
		best := simulate(b, c, harness.JobSpec{Kind: harness.JobMatmul, Block: l2 / 4})
		big := simulate(b, c, harness.JobSpec{Kind: harness.JobMatmul, Block: 4 * l2})
		b.ReportMetric(small.Seconds(), "blockC32_sim_s")
		b.ReportMetric(best.Seconds(), "blockC4_sim_s")
		b.ReportMetric(big.Seconds(), "block4C_sim_s")
	}
}

// Ablation: bin tour order (allocation vs Morton vs Hilbert) on the
// N-body workload, where bins have true 3-D structure. §2.3 conjectures a
// shorter tour helps; this measures it.
func BenchmarkAblationTourOrder(b *testing.B) {
	c := quick()
	m := c.NBodyR8000()
	for _, tour := range []core.TourOrder{core.TourAllocation, core.TourMorton, core.TourHilbert} {
		b.Run(tour.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := c.RunNBodyThreadedTour(m, tour)
				b.ReportMetric(float64(r.Summary.L2.Misses), "L2misses")
				b.ReportMetric(r.Seconds(), "sim_s")
			}
		})
	}
}

// Ablation: symmetric hint folding (§2.3's 50% bin reduction) — native
// fork cost and bin count with and without.
func BenchmarkAblationFolding(b *testing.B) {
	for _, fold := range []bool{false, true} {
		name := "off"
		if fold {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			s := core.New(core.Config{CacheSize: 1 << 20, BlockSize: 1 << 16, FoldSymmetric: fold})
			null := func(int, int) {}
			var bins float64
			for i := 0; i < b.N; i++ {
				for j := 0; j < 2048; j++ {
					h1 := uint64(j%16) << 16
					h2 := uint64((j/16)%16) << 16
					s.Fork(null, j, 0, h1, h2, 0)
				}
				bins = float64(s.Stats().BinsUsed)
				s.Run(false)
			}
			b.ReportMetric(bins, "bins")
		})
	}
}

// Ablation: hash table dimension — chaining cost as the table shrinks.
func BenchmarkAblationHashDim(b *testing.B) {
	for _, dim := range []int{2, 4, 16, 64} {
		b.Run(string(rune('0'+dim/10))+string(rune('0'+dim%10)), func(b *testing.B) {
			s := core.New(core.Config{CacheSize: 1 << 26, BlockSize: 1 << 12, HashDim: dim})
			null := func(int, int) {}
			for i := 0; i < b.N; i++ {
				for j := 0; j < 2048; j++ {
					s.Fork(null, j, 0, uint64(j)<<12, 0, 0)
				}
				s.Run(false)
			}
		})
	}
}

// Ablation: thread-group batch size — §3.2's amortization argument.
func BenchmarkAblationGroupSize(b *testing.B) {
	for _, gs := range []int{1, 16, 256, 4096} {
		b.Run(groupName(gs), func(b *testing.B) {
			s := core.New(core.Config{CacheSize: 1 << 20, BlockSize: 1 << 18, GroupSize: gs})
			null := func(int, int) {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 4096; j++ {
					s.Fork(null, j, 0, uint64(j%8)<<18, 0, 0)
				}
				s.Run(false)
			}
		})
	}
}

func groupName(gs int) string {
	switch gs {
	case 1:
		return "g1"
	case 16:
		return "g16"
	case 256:
		return "g256"
	default:
		return "g4096"
	}
}

// Ablation: the SMP extension — parallel bin execution on the native
// N-body step.
func BenchmarkAblationWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(string(rune('0'+w)), func(b *testing.B) {
			s := nbody.NewSystem(4000, 3)
			sched := core.New(core.Config{CacheSize: 2 << 20, Workers: w})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nbody.StepThreaded(s, sched, nil)
			}
		})
	}
}

// Ablation: page placement policy — the §2.2 virtual-memory effect on a
// physically indexed L2 (conflict misses under identity vs random
// placement).
func BenchmarkAblationPagePlacement(b *testing.B) {
	run := func(pol vm.Policy) cache.Stats {
		pt, err := vm.NewPageTable(4096, pol)
		if err != nil {
			b.Fatal(err)
		}
		m := machine.R8000().Scaled(64)
		h := cache.MustNewHierarchy(m.Caches, pt)
		cpu := sim.NewCPU(h)
		as := vm.NewAddressSpace()
		tr := sor.NewTracedArray(cpu, as, 251)
		th := sim.NewThreads(cpu, as, sor.ThreadedScheduler(m.L2CacheSize()))
		tr.Threaded(10, th)
		return h.L2().Stats()
	}
	for i := 0; i < b.N; i++ {
		ident := run(vm.IdentityPolicy{})
		random := run(vm.RandomPolicy{Seed: 9})
		b.ReportMetric(float64(ident.Conflict), "identity_L2conflict")
		b.ReportMetric(float64(random.Conflict), "random_L2conflict")
	}
}

// Ablation: §7's first open question — the locality algorithm on a
// general-purpose (goroutine-backed, synchronization-capable) thread
// package versus the specialized run-to-completion package. Compare
// ns/thread against BenchmarkTable1ThreadOverhead.
func BenchmarkAblationGeneralPurposeThreads(b *testing.B) {
	s := gpthreads.New(core.Config{CacheSize: 2 << 20, BlockSize: 1 << 20})
	null := func() {}
	const batch = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			s.Fork(null, uint64(j%16)<<20, uint64((j/16)%16)<<20, 0)
		}
		s.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/thread")
}

// Ablation: the §7 SMP demonstration — locality-bin dispatch vs thread
// scatter on a simulated 4-processor machine with coherent private
// caches (deterministic simulation; metrics are the point, not ns/op).
func BenchmarkAblationSMPDispatch(b *testing.B) {
	m := machine.R8000().Scaled(16)
	for _, pol := range []smp.Policy{smp.LocalityBins, smp.Scatter} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := smp.NBodyExperiment(
					smp.Config{Procs: 4, Machine: m, Coherence: true}, 4000, pol, 42)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.L2Misses), "L2misses")
				b.ReportMetric(float64(r.Stats.Invalidations), "invalidations")
				b.ReportMetric(r.Speedup(), "speedup")
			}
		})
	}
}

// Ablation: the locality scheduler against the modern default — a
// Cilk-style work-stealing scheduler — on the same simulated
// multiprocessor and workload.
func BenchmarkAblationWorkStealing(b *testing.B) {
	m := machine.R8000().Scaled(16)
	for i := 0; i < b.N; i++ {
		loc, ws, steals, err := stealing.CompareWithLocality(m, 4, 4000, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(loc.L2Misses), "locality_L2misses")
		b.ReportMetric(float64(ws.L2Misses), "stealing_L2misses")
		b.ReportMetric(float64(ws.Stats.Invalidations), "stealing_invalidations")
		b.ReportMetric(float64(steals), "steals")
	}
}

// BenchmarkParallelFork measures the single-producer fork path, the one
// Fork has, in ns/thread. The serial case forks 65,536 null threads into
// 4,096 bins (16 threads each); the sparse case forks 16,384 threads into
// as many one-thread bins, the shape a small scheduler block gives (Figure
// 4's C/32 matmul), spread over three dimensions so that hash chains stay
// four bins long and B/op shows what each bin's first thread group costs.
// Each iteration drains the schedule outside the timed fork phase, so the
// free lists are warm from the second iteration on.
func BenchmarkParallelFork(b *testing.B) {
	null := func(int, int) {}
	cases := []struct {
		name    string
		threads int
		hint    func(j int) (uint64, uint64, uint64)
	}{
		{"serial", 1 << 16, func(j int) (uint64, uint64, uint64) {
			return uint64(j%64) << 14, uint64((j/64)%64) << 14, 0
		}},
		{"sparse", 1 << 14, func(j int) (uint64, uint64, uint64) {
			return uint64(j%32) << 14, uint64((j/32)%32) << 14, uint64(j/1024) << 14
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := core.New(core.Config{CacheSize: 1 << 22, BlockSize: 1 << 14})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < c.threads; j++ {
					h1, h2, h3 := c.hint(j)
					s.Fork(null, j, 0, h1, h2, h3)
				}
				b.StopTimer()
				s.Run(false)
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.threads), "ns/thread")
		})
	}
}

// BenchmarkPartitionedRun times the parallel dispatcher — contiguous
// weighted tour segments with chunked stealing — on a skewed keep=true
// re-run. The smp sub-benchmark reports the simulated coherence traffic
// of segment dispatch against a shared-counter interleave, which is the
// effect wall time on a real multicore follows (segment dispatch keeps
// tour neighbours — and the read-mostly data they share — on one cache).
func BenchmarkPartitionedRun(b *testing.B) {
	const (
		bins    = 64
		perBin  = 256
		binData = 1 << 13 // 8 KiB of float64 work per bin
	)
	data := make([]float64, bins*binData/8)
	for i := range data {
		data[i] = float64(i)
	}
	sink := make([]float64, bins*perBin) // one slot per thread: race-free across workers
	body := func(a1, _ int) {
		base := (a1 % (binData / 8 / perBin)) * (binData / 8 / perBin)
		s := 0.0
		for k := 0; k < binData/8/perBin; k++ {
			s += data[base+k]
		}
		sink[a1] = s
	}
	b.Run("segmented", func(b *testing.B) {
		s := core.New(core.Config{CacheSize: 1 << 20, BlockSize: 1 << 13, Workers: 4})
		defer s.Close()
		for bi := 0; bi < bins; bi++ {
			// Skewed occupancy: low bins hold more threads, so the
			// weighted partition and stealing both matter.
			n := perBin
			if bi%4 != 0 {
				n = perBin / 4
			}
			for j := 0; j < n; j++ {
				s.Fork(body, bi*perBin+j, 0, uint64(bi)<<13, 0, 0)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Run(true)
		}
	})
	b.Run("smp-invalidations", func(b *testing.B) {
		m := machine.R8000().Scaled(16)
		for i := 0; i < b.N; i++ {
			seg, il, err := smp.CompareDispatch(m, 4, 4000, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(seg.Stats.Invalidations), "segment_invalidations")
			b.ReportMetric(float64(il.Stats.Invalidations), "interleave_invalidations")
			b.ReportMetric(float64(seg.L2Misses), "segment_L2misses")
			b.ReportMetric(float64(il.L2Misses), "interleave_L2misses")
			b.ReportMetric(seg.Speedup(), "segment_speedup")
		}
	})
}

// Ablation: trace file round trip — encoding density and replay equality,
// benchmarked as the substrate the full-size experiments would stream
// through.
func BenchmarkTraceRoundTrip(b *testing.B) {
	refs := make([]trace.Ref, 100000)
	for i := range refs {
		refs[i] = trace.Ref{Kind: trace.Load, Addr: uint64(0x1000_0000 + 8*i), Size: 8}
	}
	b.SetBytes(int64(len(refs)))
	for i := 0; i < b.N; i++ {
		var sink trace.Counts
		buf := encodeDecode(b, refs, &sink)
		if sink.Loads() != uint64(len(refs)) {
			b.Fatalf("replay lost records: %d", sink.Loads())
		}
		b.ReportMetric(float64(buf)/float64(len(refs)), "bytes/ref")
	}
}

func encodeDecode(b *testing.B, refs []trace.Ref, sink trace.Recorder) int {
	b.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, r := range refs {
		w.Record(r)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	written := buf.Len()
	r := trace.NewReader(&buf)
	if err := r.ForEach(func(ref trace.Ref) error { sink.Record(ref); return nil }); err != nil {
		b.Fatal(err)
	}
	return written
}

// BenchmarkSimModes measures one traced workload end to end — trace
// generation plus cache simulation — through the measurement pipeline,
// the one production reference-stream path; refs/s is the comparable
// quantity. make guard-pipeline times the same path against the
// per-reference serial oracle, which lives in internal/harness's tests.
func BenchmarkSimModes(b *testing.B) {
	b.Run("pipeline", func(b *testing.B) {
		c := quick()
		var refs uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := simulate(b, c, harness.JobSpec{Kind: harness.JobMatmul, Variant: "interchanged"})
			refs += r.Summary.IFetches + r.Summary.DataRefs
		}
		b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
	})
}
