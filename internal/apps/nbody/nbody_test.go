package nbody

import (
	"math"
	"testing"
	"testing/quick"

	"threadsched/internal/cache"
	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

func TestNewSystemDeterministic(t *testing.T) {
	a := NewSystem(100, 7)
	b := NewSystem(100, 7)
	for i := range a.Bodies {
		if a.Bodies[i] != b.Bodies[i] {
			t.Fatalf("body %d differs between equal-seed systems", i)
		}
	}
	c := NewSystem(100, 8)
	same := true
	for i := range a.Bodies {
		if a.Bodies[i] != c.Bodies[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical systems")
	}
}

func TestBodiesInsideUnitCube(t *testing.T) {
	s := NewSystem(500, 3)
	for i, b := range s.Bodies {
		for d := 0; d < 3; d++ {
			if b.Pos[d] < 0 || b.Pos[d] > 1 {
				t.Fatalf("body %d outside unit cube: %v", i, b.Pos)
			}
		}
	}
}

func TestTreeContainsEveryBodyOnce(t *testing.T) {
	s := NewSystem(300, 5)
	tree := Build(s, nil)
	if got := tree.CountBodies(); got != len(s.Bodies) {
		t.Fatalf("tree holds %d bodies, want %d", got, len(s.Bodies))
	}
}

func TestTreeMassConserved(t *testing.T) {
	s := NewSystem(200, 11)
	tree := Build(s, nil)
	if diff := math.Abs(tree.Mass() - s.TotalMass()); diff > 1e-12 {
		t.Fatalf("tree mass %v vs system %v", tree.Mass(), s.TotalMass())
	}
}

func TestTreeBoundsContainAllBodies(t *testing.T) {
	s := NewSystem(100, 2)
	tree := Build(s, nil)
	for i, b := range s.Bodies {
		if !tree.Contains(b.Pos) {
			t.Fatalf("body %d outside tree bounds", i)
		}
	}
}

func TestCoincidentBodiesHandled(t *testing.T) {
	// All bodies at the same point must still build and count correctly.
	s := NewSystem(10, 1)
	for i := range s.Bodies {
		s.Bodies[i].Pos = [3]float64{0.5, 0.5, 0.5}
	}
	tree := Build(s, nil)
	if got := tree.CountBodies(); got != 10 {
		t.Fatalf("coincident tree holds %d bodies, want 10", got)
	}
	if diff := math.Abs(tree.Mass() - s.TotalMass()); diff > 1e-12 {
		t.Fatalf("coincident tree mass %v vs %v", tree.Mass(), s.TotalMass())
	}
	// Accel at a displaced point must see the full mass.
	acc := tree.Accel(s, [3]float64{0.6, 0.5, 0.5}, nil)
	want := s.DirectAccelAt([3]float64{0.6, 0.5, 0.5})
	for d := 0; d < 3; d++ {
		if math.Abs(acc[d]-want[d]) > 1e-9 {
			t.Fatalf("coincident accel %v, want %v", acc, want)
		}
	}
}

// Property: as θ→0 the tree force converges to the direct sum.
func TestTreeForceMatchesDirectSmallTheta(t *testing.T) {
	s := NewSystem(150, 9)
	s.Theta = 0 // every traversal opens down to leaves
	tree := Build(s, nil)
	for _, i := range []int{0, 17, 90, 149} {
		got := tree.Accel(s, s.Bodies[i].Pos, nil)
		want := s.DirectAccel(i)
		for d := 0; d < 3; d++ {
			rel := math.Abs(got[d]-want[d]) / (math.Abs(want[d]) + 1e-12)
			if rel > 1e-9 {
				t.Fatalf("body %d axis %d: tree %v direct %v", i, d, got, want)
			}
		}
	}
}

func TestTreeForceApproximatesDirectModerateTheta(t *testing.T) {
	s := NewSystem(400, 13)
	s.Theta = 0.5
	tree := Build(s, nil)
	var worst float64
	for i := 0; i < len(s.Bodies); i += 37 {
		got := tree.Accel(s, s.Bodies[i].Pos, nil)
		want := s.DirectAccel(i)
		var gn, dn float64
		for d := 0; d < 3; d++ {
			gn += (got[d] - want[d]) * (got[d] - want[d])
			dn += want[d] * want[d]
		}
		if rel := math.Sqrt(gn / (dn + 1e-30)); rel > worst {
			worst = rel
		}
	}
	if worst > 0.05 {
		t.Fatalf("θ=0.5 worst relative force error %v > 5%%", worst)
	}
}

func TestThreadedStepMatchesUnthreadedExactly(t *testing.T) {
	a := NewSystem(400, 21)
	b := a.Clone()
	for step := 0; step < 3; step++ {
		StepUnthreaded(a, nil)
		StepThreaded(b, ThreadedScheduler(1<<16), nil)
	}
	for i := range a.Bodies {
		if a.Bodies[i] != b.Bodies[i] {
			t.Fatalf("body %d diverged after threaded steps:\n%+v\n%+v",
				i, a.Bodies[i], b.Bodies[i])
		}
	}
}

func TestThreadedStepBinStats(t *testing.T) {
	s := NewSystem(2000, 4)
	sched := ThreadedScheduler(1 << 18)
	StepThreaded(s, sched, nil)
	st := sched.Stats()
	if st.TotalForked != 2000 {
		t.Fatalf("forked %d, want 2000", st.TotalForked)
	}
	if st.TotalRun != 2000 {
		t.Fatalf("ran %d, want 2000", st.TotalRun)
	}
}

func TestHintsInRange(t *testing.T) {
	s := NewSystem(50, 6)
	tree := Build(s, nil)
	cacheSize := uint64(1 << 16)
	f := func(x, y, z float64) bool {
		pos := [3]float64{math.Mod(math.Abs(x), 1), math.Mod(math.Abs(y), 1), math.Mod(math.Abs(z), 1)}
		h1, h2, h3 := Hints(tree, cacheSize, pos)
		limit := HintSpanFactor * cacheSize
		return h1 <= limit && h2 <= limit && h3 <= limit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMomentumNearlyConserved(t *testing.T) {
	// Gravity is pairwise; the direct sum conserves momentum exactly and
	// the Barnes–Hut approximation must conserve it to within the θ
	// error. Test over several steps: total momentum drift stays small
	// relative to the momentum scale of individual bodies.
	s := NewSystem(500, 37)
	mom := func() [3]float64 {
		var p [3]float64
		for _, b := range s.Bodies {
			for d := 0; d < 3; d++ {
				p[d] += b.Mass * b.Vel[d]
			}
		}
		return p
	}
	var scale float64
	for _, b := range s.Bodies {
		for d := 0; d < 3; d++ {
			v := b.Mass * b.Vel[d]
			if v < 0 {
				v = -v
			}
			scale += v
		}
	}
	before := mom()
	for i := 0; i < 5; i++ {
		StepUnthreaded(s, nil)
	}
	after := mom()
	for d := 0; d < 3; d++ {
		drift := after[d] - before[d]
		if drift < 0 {
			drift = -drift
		}
		if drift > 0.05*scale {
			t.Fatalf("momentum axis %d drifted %v (scale %v)", d, drift, scale)
		}
	}
}

func TestTreeNodesBounded(t *testing.T) {
	s := NewSystem(1000, 41)
	tree := Build(s, nil)
	if tree.Nodes() < 1000 {
		t.Fatalf("tree has %d nodes for 1000 bodies", tree.Nodes())
	}
	// An insertion octree over points in general position stays linear
	// in n (the clamp in NewTracer assumes ≤ 4n+64).
	if tree.Nodes() > 4*1000 {
		t.Fatalf("tree has %d nodes, exceeding the 4n arena assumption", tree.Nodes())
	}
}

func TestEnergyScaleStaysBounded(t *testing.T) {
	// A loose sanity bound: a few small steps must not blow the system up.
	s := NewSystem(200, 17)
	var before float64
	for _, b := range s.Bodies {
		before += b.Vel[0]*b.Vel[0] + b.Vel[1]*b.Vel[1] + b.Vel[2]*b.Vel[2]
	}
	for i := 0; i < 5; i++ {
		StepUnthreaded(s, nil)
	}
	var after float64
	for _, b := range s.Bodies {
		after += b.Vel[0]*b.Vel[0] + b.Vel[1]*b.Vel[1] + b.Vel[2]*b.Vel[2]
	}
	if math.IsNaN(after) || after > 1e6*(before+1) {
		t.Fatalf("kinetic scale exploded: %v -> %v", before, after)
	}
}

func TestTracedStepMatchesUntraced(t *testing.T) {
	a := NewSystem(200, 23)
	b := a.Clone()
	StepUnthreaded(a, nil)

	cpu := sim.NewCPU(trace.Discard)
	as := vm.NewAddressSpace()
	tr := NewTracer(cpu, as, len(b.Bodies))
	StepUnthreaded(b, tr)
	for i := range a.Bodies {
		if a.Bodies[i] != b.Bodies[i] {
			t.Fatalf("tracing changed the computation at body %d", i)
		}
	}
	if cpu.Instructions == 0 {
		t.Fatal("no instructions charged")
	}
}

func TestTracedThreadedMatchesUnthreaded(t *testing.T) {
	a := NewSystem(300, 29)
	b := a.Clone()
	StepUnthreaded(a, nil)

	cpu := sim.NewCPU(trace.Discard)
	as := vm.NewAddressSpace()
	tr := NewTracer(cpu, as, len(b.Bodies))
	th := sim.NewThreads(cpu, as, ThreadedScheduler(1<<16))
	StepThreadedTraced(b, &Tree{}, th, tr)
	for i := range a.Bodies {
		if a.Bodies[i] != b.Bodies[i] {
			t.Fatalf("traced threaded step diverged at body %d", i)
		}
	}
}

// Shape test for Table 9: threading must cut L2 capacity misses by about
// a factor of 2 (paper: 1,131K → 495K, ×2.3).
func TestThreadingCutsL2CapacityMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled cache simulation")
	}
	// The traversal footprint shrinks only logarithmically with n, so the
	// N-body experiment scales caches by 16 (not 64) with n = 64000/8;
	// see EXPERIMENTS.md.
	mach := machine.R8000().Scaled(16)
	n := 8000

	run := func(threaded bool) (cache.Summary, core.RunStats) {
		h := cache.MustNewHierarchy(mach.Caches, nil)
		cpu := sim.NewCPU(h)
		as := vm.NewAddressSpace()
		s := NewSystem(n, 31)
		tr := NewTracer(cpu, as, n)
		var rs core.RunStats
		if threaded {
			sched := ThreadedScheduler(mach.L2CacheSize())
			th := sim.NewThreads(cpu, as, sched)
			StepThreadedTraced(s, &Tree{}, th, tr)
			rs = sched.LastRun()
		} else {
			StepUnthreaded(s, tr)
		}
		return h.Summarize(), rs
	}

	un, _ := run(false)
	th, rs := run(true)
	if un.L2.Capacity == 0 {
		t.Fatal("unthreaded run shows no capacity misses; scaling is wrong")
	}
	// Paper Table 9: capacity misses drop by ×2.3.
	if th.L2.Capacity*2 > un.L2.Capacity {
		t.Errorf("threaded capacity misses %d not < half of unthreaded %d",
			th.L2.Capacity, un.L2.Capacity)
	}
	// §4.4: threads spread over tens of bins, non-uniformly.
	if rs.Bins < 10 || rs.Bins > 200 {
		t.Errorf("threaded run used %d bins; expected tens (paper: 46)", rs.Bins)
	}
	if rs.Threads != n {
		t.Errorf("run stats counted %d threads, want %d", rs.Threads, n)
	}
}

func BenchmarkUnthreadedStep(b *testing.B) {
	s := NewSystem(4000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StepUnthreaded(s, nil)
	}
}

func BenchmarkThreadedStep(b *testing.B) {
	s := NewSystem(4000, 1)
	sched := ThreadedScheduler(2 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StepThreaded(s, sched, nil)
	}
}
