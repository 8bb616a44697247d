package harness

import (
	"strings"
	"testing"

	"threadsched/internal/machine"
	"threadsched/internal/tables"
)

// Shape assertions run at the Quick geometry: fast enough for CI, large
// enough that every paper-shape relation must hold.

func TestConfigsAreConsistent(t *testing.T) {
	for _, c := range []Config{Quick(), Scaled(), Full()} {
		if c.Scale == 0 || c.NBodyScale == 0 {
			t.Fatalf("zero scale in %+v", c)
		}
		if err := c.R8000().Caches.Validate(); err != nil {
			t.Fatalf("R8000 scaled caches invalid: %v", err)
		}
		if err := c.R10000().Caches.Validate(); err != nil {
			t.Fatalf("R10000 scaled caches invalid: %v", err)
		}
		// Data:cache ratios must match the paper's within 2x: matmul data
		// is 3n²×8 bytes vs the paper's 24 MB over 2 MB (12x).
		data := float64(3*c.MatmulN*c.MatmulN) * 8
		ratio := data / float64(c.R8000().L2CacheSize())
		if ratio < 6 || ratio > 24 {
			t.Errorf("matmul data:cache ratio %.1f, paper is 12", ratio)
		}
	}
}

func TestMeasureNullThreads(t *testing.T) {
	fork, run := measureNullThreads(1 << 14)
	if fork <= 0 || run <= 0 {
		t.Fatalf("non-positive overheads: fork %v run %v", fork, run)
	}
	if fork > 10_000 || run > 10_000 {
		t.Fatalf("implausible overheads (>10µs): fork %vns run %vns", fork, run)
	}
}

func TestTable1Renders(t *testing.T) {
	cfg := Quick()
	cfg.Table1Threads = 1 << 14
	tb := cfg.Table1()
	out := tb.String()
	for _, want := range []string{"Fork", "Run", "Total", "L2 Miss", "1.38", "0.95"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	c := Quick()
	var prog Progress
	tb := c.Table2(prog)
	if len(tb.Rows) != 5 {
		t.Fatalf("Table 2 has %d rows, want 5", len(tb.Rows))
	}
	un := c.RunMatmul(MatmulInterchanged, c.R8000())
	ti := c.RunMatmul(MatmulTiledInterchanged, c.R8000())
	th := c.RunMatmul(MatmulThreaded, c.R8000())
	// Paper shape: tiled < threaded < untiled on the R8000.
	if !(ti.Time < th.Time && th.Time < un.Time) {
		t.Errorf("R8000 ordering wrong: tiled %v, threaded %v, untiled %v",
			ti.Time, th.Time, un.Time)
	}
	// The threaded win must come from L2 misses, mostly capacity.
	if th.Summary.L2.Misses*2 > un.Summary.L2.Misses {
		t.Errorf("threaded L2 misses %d not < half of untiled %d",
			th.Summary.L2.Misses, un.Summary.L2.Misses)
	}
	if th.Sched.Bins == 0 || th.Sched.Threads != c.MatmulN*c.MatmulN {
		t.Errorf("threaded sched stats missing: %+v", th.Sched)
	}
}

func TestTable3CapacityShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	c := Quick()
	m := c.R8000()
	un := c.RunMatmul(MatmulInterchanged, m)
	th := c.RunMatmul(MatmulThreaded, m)
	if un.Summary.L2.Capacity == 0 {
		t.Fatal("untiled shows no capacity misses")
	}
	if th.Summary.L2.Capacity*3 > un.Summary.L2.Capacity {
		t.Errorf("capacity shrink too small: %d vs %d",
			th.Summary.L2.Capacity, un.Summary.L2.Capacity)
	}
	// §4.2: threaded reduces both I and D references versus untiled.
	if th.Instructions >= un.Instructions {
		t.Error("threaded instructions not below untiled")
	}
	if th.Summary.DataRefs >= un.Summary.DataRefs {
		t.Error("threaded data refs not below untiled")
	}
}

func TestTable4And5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	c := Quick()
	m := c.R8000()
	reg := c.RunPDE(PDERegular, m)
	cc := c.RunPDE(PDECacheConscious, m)
	th := c.RunPDE(PDEThreaded, m)
	// Table 4 R8000 ordering: cache-conscious < threaded < regular.
	if !(cc.Time <= th.Time && th.Time < reg.Time) {
		t.Errorf("PDE ordering wrong: cc %v, threaded %v, regular %v",
			cc.Time, th.Time, reg.Time)
	}
	// Table 5: CC avoids ~60% of capacity misses, threaded ~50%.
	if cc.Summary.L2.Capacity*2 > reg.Summary.L2.Capacity {
		t.Errorf("CC capacity %d not < half of regular %d",
			cc.Summary.L2.Capacity, reg.Summary.L2.Capacity)
	}
	if th.Summary.L2.Capacity*3 > reg.Summary.L2.Capacity*2 {
		t.Errorf("threaded capacity %d not < 2/3 of regular %d",
			th.Summary.L2.Capacity, reg.Summary.L2.Capacity)
	}
}

func TestTable6And7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	c := Quick()
	m := c.R8000()
	un := c.RunSOR(SORUntiled, m)
	ti := c.RunSOR(SORHandTiled, m)
	th := c.RunSOR(SORThreaded, m)
	if !(th.Time < un.Time && ti.Time < un.Time) {
		t.Errorf("SOR ordering wrong: untiled %v, tiled %v, threaded %v",
			un.Time, ti.Time, th.Time)
	}
	// Table 7: both remove essentially all capacity misses.
	if un.Summary.L2.Capacity == 0 {
		t.Fatal("untiled SOR shows no capacity misses")
	}
	if ti.Summary.L2.Capacity*10 > un.Summary.L2.Capacity {
		t.Errorf("tiled capacity %d not ≪ untiled %d",
			ti.Summary.L2.Capacity, un.Summary.L2.Capacity)
	}
	if th.Summary.L2.Capacity*10 > un.Summary.L2.Capacity {
		t.Errorf("threaded capacity %d not ≪ untiled %d",
			th.Summary.L2.Capacity, un.Summary.L2.Capacity)
	}
}

func TestTable8And9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	c := Quick()
	m := c.NBodyR8000()
	un := c.RunNBody(NBodyUnthreaded, m, 1)
	th := c.RunNBody(NBodyThreaded, m, 1)
	if th.Time >= un.Time {
		t.Errorf("threaded N-body %v not faster than unthreaded %v", th.Time, un.Time)
	}
	if th.Summary.L2.Capacity*2 > un.Summary.L2.Capacity {
		t.Errorf("N-body capacity shrink too small: %d vs %d",
			th.Summary.L2.Capacity, un.Summary.L2.Capacity)
	}
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	c := Quick()
	m := c.R8000()
	l2 := m.L2CacheSize()
	// Matmul: a block of C/4 must beat a block of 4C (degradation past the
	// cache size, the figure's headline), and SOR likewise.
	good := c.RunMatmulThreadedBlock(m, l2/4)
	bad := c.RunMatmulThreadedBlock(m, 4*l2)
	if good.Time >= bad.Time {
		t.Errorf("matmul: block C/4 (%v) not faster than 4C (%v)", good.Time, bad.Time)
	}
	sGood := c.RunSORThreadedBlock(m, l2/4)
	sBad := c.RunSORThreadedBlock(m, 4*l2)
	if sGood.Time >= sBad.Time {
		t.Errorf("SOR: block C/4 (%v) not faster than 4C (%v)", sGood.Time, sBad.Time)
	}
}

func TestFigure4TableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	c := Quick()
	tb := c.Figure4(nil)
	if len(tb.Rows) != len(Figure4RelativeBlocks) {
		t.Fatalf("Figure 4 rows = %d, want %d", len(tb.Rows), len(Figure4RelativeBlocks))
	}
	if len(tb.Columns) != 5 {
		t.Fatalf("Figure 4 columns = %d, want 5", len(tb.Columns))
	}
}

func TestMissTableRendersPaperNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	c := Quick()
	tb := c.Table9(nil)
	out := tb.String()
	// Paper's Table 9 values must appear verbatim.
	for _, want := range []string{"1820656", "865713", "1131", "495"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 9 output missing paper value %q", want)
		}
	}
}

func TestPaperDataSelfConsistent(t *testing.T) {
	// The transcribed miss tables must satisfy the classification
	// identity compulsory + capacity + conflict = L2 misses, within the
	// ±1-per-component rounding of the paper's in-thousands printing.
	check := func(name string, rows map[string]tables.MissRow) {
		for variant, r := range rows {
			sum := r.Compulsory + r.Capacity + r.Conflict
			diff := int64(sum) - int64(r.L2Misses)
			if diff < -3 || diff > 3 {
				t.Errorf("%s %s: %d+%d+%d != %d", name, variant,
					r.Compulsory, r.Capacity, r.Conflict, r.L2Misses)
			}
		}
	}
	check("Table3", tables.PaperTable3)
	check("Table5", tables.PaperTable5)
	check("Table7", tables.PaperTable7)
	check("Table9", tables.PaperTable9)
}

func TestModernCollapsesTheGap(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	c := Quick()
	modern := machine.Modern()
	un := c.RunMatmul(MatmulInterchanged, modern)
	th := c.RunMatmul(MatmulThreaded, modern)
	r8un := c.RunMatmul(MatmulInterchanged, c.R8000())
	r8th := c.RunMatmul(MatmulThreaded, c.R8000())
	modernGap := un.Seconds() / th.Seconds()
	r8Gap := r8un.Seconds() / r8th.Seconds()
	// The 1996 machine must show a substantial gap; the modern one must
	// nearly erase it.
	if r8Gap < 1.5 {
		t.Fatalf("R8000 gap %.2f too small; quick geometry broken", r8Gap)
	}
	if modernGap > 1.2 {
		t.Errorf("modern gap %.2f should be near 1 (L3 holds the problem)", modernGap)
	}
	// The modern L3 absorbs essentially everything: its misses are a tiny
	// fraction of the R8000's L2 misses at the same workload.
	if un.Summary.L3.Misses*10 > r8un.Summary.L2.Misses {
		t.Errorf("modern L3 misses %d not ≪ R8000 L2 misses %d",
			un.Summary.L3.Misses, r8un.Summary.L2.Misses)
	}
}

func TestModernTableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation")
	}
	c := Quick()
	tb := c.Modern(nil)
	if len(tb.Rows) != 3 {
		t.Fatalf("modern table rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "L3") {
		t.Fatal("modern table missing L3 column")
	}
}

// ParseMode keeps "batch" as an alias of the default pipelined path, so
// command lines and job specs written before the batched path was folded
// into it still run; anything else unknown is an error naming the modes.
func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{
		"pipeline": ModePipelined,
		"batch":    ModePipelined,
		"Batch":    ModePipelined,
		"serial":   ModeSerial,
	} {
		if got, err := ParseMode(name); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "parallel", "inline"} {
		if _, err := ParseMode(bad); err == nil || !strings.Contains(err.Error(), "pipeline or serial") {
			t.Errorf("ParseMode(%q) err = %v, want an error naming pipeline and serial", bad, err)
		}
	}
	var zero Config
	if zero.Mode != ModePipelined {
		t.Errorf("zero Config.Mode = %v, want the pipelined default", zero.Mode)
	}
}
