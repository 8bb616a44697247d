package smp

import (
	"testing"

	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/vm"
)

func testMachine() machine.Machine { return machine.R8000().Scaled(64) }

func TestNewValidation(t *testing.T) {
	for _, p := range []int{0, -1, 65} {
		if _, err := New(Config{Procs: p, Machine: testMachine()}); err == nil {
			t.Errorf("Procs=%d accepted", p)
		}
	}
	s, err := New(Config{Procs: 4, Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Procs() != 4 {
		t.Fatalf("Procs = %d", s.Procs())
	}
}

func TestRoutingFollowsSwitch(t *testing.T) {
	s, err := New(Config{Procs: 2, Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	cpu := s.CPU()
	cpu.Load(0x1000, 8)
	s.Switch(1)
	cpu.Load(0x2000, 8)
	cpu.Load(0x3000, 8)
	if s.Proc(0).Refs != 1 || s.Proc(1).Refs != 2 {
		t.Fatalf("refs = %d/%d, want 1/2", s.Proc(0).Refs, s.Proc(1).Refs)
	}
	if s.Proc(0).Hier.L1D().Stats().Accesses != 1 {
		t.Fatal("proc 0 hierarchy did not receive its reference")
	}
	if s.Proc(1).Hier.L1D().Stats().Accesses != 2 {
		t.Fatal("proc 1 hierarchy did not receive its references")
	}
}

func TestInstructionAttribution(t *testing.T) {
	s, _ := New(Config{Procs: 2, Machine: testMachine()})
	s.CPU().Exec(0, 10)
	s.Switch(1)
	s.CPU().Exec(0, 30)
	res := s.Finish()
	if s.Proc(0).Instructions != 10 || s.Proc(1).Instructions != 30 {
		t.Fatalf("instructions = %d/%d", s.Proc(0).Instructions, s.Proc(1).Instructions)
	}
	if len(res.PerProc) != 2 || res.Parallel < res.PerProc[0] {
		t.Fatalf("result %+v", res)
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	// 1<<64-4 is a load running past the top of the address space: its
	// span ends at the last line, for the caches and the directory alike.
	for _, addr := range []uint64{0x4000, 1<<64 - 4} {
		s, _ := New(Config{Procs: 2, Machine: testMachine(), Coherence: true})
		cpu := s.CPU()
		// Proc 0 reads a line; proc 1 writes it: proc 0's copy must die.
		cpu.Load(addr, 8)
		if !s.Proc(0).Hier.L2().Contains(addr) {
			t.Fatalf("%#x: proc 0 did not cache the line", addr)
		}
		s.Switch(1)
		cpu.Store(addr, 8)
		if s.Proc(0).Hier.L2().Contains(addr) {
			t.Fatalf("%#x: write did not invalidate the remote copy", addr)
		}
		st := s.Stats()
		if st.Invalidations != 1 || st.SharedWrites != 1 {
			t.Fatalf("%#x: stats = %+v", addr, st)
		}
		// Re-read on proc 0 misses again (coherence miss).
		s.Switch(0)
		before := s.Proc(0).Hier.L2().Stats().Misses
		cpu.Load(addr, 8)
		if after := s.Proc(0).Hier.L2().Stats().Misses; after != before+1 {
			t.Fatalf("%#x: re-read after invalidation did not miss", addr)
		}
	}
}

func TestCoherenceOffNoInvalidation(t *testing.T) {
	s, _ := New(Config{Procs: 2, Machine: testMachine(), Coherence: false})
	cpu := s.CPU()
	cpu.Load(0x4000, 8)
	s.Switch(1)
	cpu.Store(0x4000, 8)
	if s.Stats().Invalidations != 0 {
		t.Fatal("invalidations counted with coherence off")
	}
	if !s.Proc(0).Hier.L2().Contains(0x4000) {
		t.Fatal("remote copy should survive without coherence")
	}
}

func TestWriterKeepsOwnCopy(t *testing.T) {
	s, _ := New(Config{Procs: 2, Machine: testMachine(), Coherence: true})
	cpu := s.CPU()
	cpu.Load(0x4000, 8) // proc 0 shares
	s.Switch(1)
	cpu.Store(0x4000, 8)
	if !s.Proc(1).Hier.L2().Contains(0x4000) {
		t.Fatal("writer lost its own line")
	}
}

func TestDispatcherWithScheduler(t *testing.T) {
	// A scheduler run through RunEach with Switch spreads bins across
	// processors and every thread still runs exactly once.
	s, _ := New(Config{Procs: 4, Machine: testMachine()})
	sched := core.New(core.Config{CacheSize: 1 << 20, BlockSize: 1 << 14})
	as := vm.NewAddressSpace()
	th := sim.NewThreads(s.CPU(), as, sched)
	const n = 256
	ran := make([]int, n)
	for i := 0; i < n; i++ {
		th.Fork(func(a1, _ int) { ran[a1]++ }, i, 0, uint64(i)<<12, 0, 0)
	}
	procs := s.Procs()
	th.RunEach(false, func(bin, _ int) {
		bins := sched.LastRun().Bins
		s.Switch(bin * procs / max(1, bins))
	})
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("thread %d ran %d times", i, c)
		}
	}
	// Work must have landed on more than one processor.
	busy := 0
	for p := 0; p < procs; p++ {
		if s.Proc(p).Refs > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d processors received references", busy)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestPolicyString(t *testing.T) {
	if LocalityBins.String() != "locality-bins" || Scatter.String() != "scatter" {
		t.Error("policy names")
	}
}

// The §7 demonstration: with private caches and coherence, locality-bin
// dispatch must beat scattering on total L2 misses AND on invalidation
// traffic (false sharing of adjacent body records), and it must show
// parallel speedup over one processor.
func TestLocalityBinsBeatScatter(t *testing.T) {
	if testing.Short() {
		t.Skip("SMP cache simulation")
	}
	m := machine.R8000().Scaled(16)
	n := 4000

	loc4, err := NBodyExperiment(Config{Procs: 4, Machine: m, Coherence: true}, n, LocalityBins, 42)
	if err != nil {
		t.Fatal(err)
	}
	scat4, err := NBodyExperiment(Config{Procs: 4, Machine: m, Coherence: true}, n, Scatter, 42)
	if err != nil {
		t.Fatal(err)
	}
	loc1, err := NBodyExperiment(Config{Procs: 1, Machine: m, Coherence: true}, n, LocalityBins, 42)
	if err != nil {
		t.Fatal(err)
	}

	if loc4.L2Misses >= scat4.L2Misses {
		t.Errorf("locality L2 misses %d not < scatter %d", loc4.L2Misses, scat4.L2Misses)
	}
	if loc4.Stats.Invalidations >= scat4.Stats.Invalidations {
		t.Errorf("locality invalidations %d not < scatter %d",
			loc4.Stats.Invalidations, scat4.Stats.Invalidations)
	}
	if loc4.Parallel >= loc1.Parallel {
		t.Errorf("4 procs (%v) not faster than 1 (%v)", loc4.Parallel, loc1.Parallel)
	}
	if sp := loc4.Speedup(); sp < 1.5 {
		t.Errorf("locality speedup %v < 1.5 on 4 procs", sp)
	}
	t.Logf("4-proc: locality misses=%d inval=%d speedup=%.2f | scatter misses=%d inval=%d speedup=%.2f",
		loc4.L2Misses, loc4.Stats.Invalidations, loc4.Speedup(),
		scat4.L2Misses, scat4.Stats.Invalidations, scat4.Speedup())
}

func TestCompareNBodySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("SMP cache simulation")
	}
	m := machine.R8000().Scaled(64)
	out, err := CompareNBody(m, 1000, []int{1, 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	for pol, results := range out {
		if len(results) != 2 {
			t.Fatalf("policy %v has %d results", pol, len(results))
		}
		for i, r := range results {
			if r.L2Misses == 0 || len(r.PerProc) != i+1 {
				t.Fatalf("policy %v result %d malformed: %+v", pol, i, r)
			}
		}
	}
}

func TestResultSpeedupZeroParallel(t *testing.T) {
	if (Result{}).Speedup() != 0 {
		t.Fatal("zero-parallel speedup should be 0")
	}
}
