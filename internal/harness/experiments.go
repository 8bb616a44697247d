package harness

import (
	"fmt"
	"strings"
	"time"

	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/tables"
)

// Table1 reproduces Table 1 (thread overhead in microseconds): the paper's
// measured numbers, this model's cost-table numbers, and a live
// measurement of the Go scheduler's fork/run overhead on the host.
func (c Config) Table1() *tables.Table {
	t := &tables.Table{
		ID:    "Table 1",
		Title: "Thread overhead in microseconds",
		Columns: []string{"", "R8000 paper", "R8000 model", "R10000 paper", "R10000 model",
			"host native (µs)"},
	}
	r8 := machine.CostModel{Machine: machine.R8000()}
	r10 := machine.CostModel{Machine: machine.R10000()}
	forkNS, runNS := measureNullThreads(c.Table1Threads)

	model := func(cm machine.CostModel, instr int) float64 {
		return (time.Duration(instr) * cm.Machine.CycleTime()).Seconds() * 1e6
	}
	// The model charges the Table-1-calibrated instruction budgets used by
	// the traced scheduler wrapper (sim.Threads): 100 to fork, 16 to run.
	t.AddRow("Fork",
		fmt.Sprintf("%.2f", tables.PaperTable1.Fork["R8000"]),
		fmt.Sprintf("%.2f", model(r8, 100)),
		fmt.Sprintf("%.2f", tables.PaperTable1.Fork["R10000"]),
		fmt.Sprintf("%.2f", model(r10, 100)),
		fmt.Sprintf("%.3f", forkNS/1e3))
	t.AddRow("Run",
		fmt.Sprintf("%.2f", tables.PaperTable1.Run["R8000"]),
		fmt.Sprintf("%.2f", model(r8, 16)),
		fmt.Sprintf("%.2f", tables.PaperTable1.Run["R10000"]),
		fmt.Sprintf("%.2f", model(r10, 16)),
		fmt.Sprintf("%.3f", runNS/1e3))
	t.AddRow("Total",
		fmt.Sprintf("%.2f", tables.PaperTable1.Total["R8000"]),
		fmt.Sprintf("%.2f", model(r8, 116)),
		fmt.Sprintf("%.2f", tables.PaperTable1.Total["R10000"]),
		fmt.Sprintf("%.2f", model(r10, 116)),
		fmt.Sprintf("%.3f", (forkNS+runNS)/1e3))
	t.AddRow("L2 Miss",
		fmt.Sprintf("%.2f", tables.PaperTable1.L2Miss["R8000"]), "",
		fmt.Sprintf("%.2f", tables.PaperTable1.L2Miss["R10000"]), "", "")
	t.AddNote("host native: %d null threads forked and run through the Go scheduler", c.Table1Threads)
	t.AddNote("paper's claim holds if total thread overhead < ~2 L2 misses on each machine")
	return t
}

// measureNullThreads times forking and running n null threads, evenly
// distributed across the scheduling plane as in §4.1, returning
// nanoseconds per fork and per run.
func measureNullThreads(n int) (forkNS, runNS float64) {
	s := core.New(core.Config{CacheSize: 2 << 20, BlockSize: 1 << 20})
	null := func(int, int) {}
	const blocks = 16
	// Warm the free lists with the timed loop's own shape, so every bin's
	// chain of thread groups is recycled and steady-state cost is
	// measured, as the paper measured a steady-state loop.
	for i := 0; i < n; i++ {
		s.Fork(null, 0, 0, uint64(i%blocks)<<20, uint64((i/blocks)%blocks)<<20, 0)
	}
	s.Run(false)

	start := time.Now()
	for i := 0; i < n; i++ {
		s.Fork(null, i, 0, uint64(i%blocks)<<20, uint64((i/blocks)%blocks)<<20, 0)
	}
	forkNS = float64(time.Since(start).Nanoseconds()) / float64(n)
	start = time.Now()
	s.Run(false)
	runNS = float64(time.Since(start).Nanoseconds()) / float64(n)
	return
}

// timeTable builds a Table 2/4/6/8-style timing table: per-variant paper
// seconds next to modelled seconds on both (scaled) machines.
func timeTable(id, title string, order []string, paper map[string]map[string]float64,
	r8, r10 map[string]SimResult) *tables.Table {
	t := &tables.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"", "R8000 paper", "R8000 sim", "R10000 paper", "R10000 sim"},
	}
	for _, name := range order {
		t.AddRow(name,
			tables.Seconds(paper[name]["R8000"]),
			tables.Seconds(r8[name].Seconds()),
			tables.Seconds(paper[name]["R10000"]),
			tables.Seconds(r10[name].Seconds()))
	}
	base, last := order[0], order[len(order)-1]
	t.AddNote("speedup %s/%s — paper R8000 %s, sim R8000 %s; paper R10000 %s, sim R10000 %s",
		base, last,
		tables.Ratio(paper[base]["R8000"], paper[last]["R8000"]),
		tables.Ratio(r8[base].Seconds(), r8[last].Seconds()),
		tables.Ratio(paper[base]["R10000"], paper[last]["R10000"]),
		tables.Ratio(r10[base].Seconds(), r10[last].Seconds()))
	return t
}

// missTable builds a Table 3/5/7/9-style miss table on the R8000: rows are
// the paper's metrics, column pairs are paper (full scale) vs simulated
// (scaled geometry); absolute counts differ by the scale factor, the
// between-variant ratios are the reproduced shape.
func missTable(id, title string, order []string, paper map[string]tables.MissRow,
	meas map[string]SimResult, scale uint64) *tables.Table {
	cols := []string{""}
	for _, name := range order {
		cols = append(cols, name+" paper", name+" sim")
	}
	t := &tables.Table{ID: id, Title: title, Columns: cols}

	row := func(label string, pv func(tables.MissRow) string, mv func(SimResult) string) {
		cells := []string{label}
		for _, name := range order {
			cells = append(cells, pv(paper[name]), mv(meas[name]))
		}
		t.AddRow(cells...)
	}
	k := func(v uint64) string { return tables.Thousands(v) }
	row("I fetches",
		func(r tables.MissRow) string { return fmt.Sprintf("%d", r.IFetches) },
		func(r SimResult) string { return k(r.Instructions) })
	row("D references",
		func(r tables.MissRow) string { return fmt.Sprintf("%d", r.DataRefs) },
		func(r SimResult) string { return k(r.Summary.DataRefs) })
	row("L1 misses",
		func(r tables.MissRow) string { return fmt.Sprintf("%d", r.L1Misses) },
		func(r SimResult) string { return k(r.Summary.L1Misses) })
	row("  rate",
		func(r tables.MissRow) string { return tables.Rate(r.L1Rate) },
		func(r SimResult) string {
			total := float64(r.Instructions + r.Summary.DataRefs)
			if total == 0 {
				return "-"
			}
			return tables.Rate(100 * float64(r.Summary.L1Misses) / total)
		})
	row("L2 misses",
		func(r tables.MissRow) string { return fmt.Sprintf("%d", r.L2Misses) },
		func(r SimResult) string { return k(r.Summary.L2.Misses) })
	row("  rate",
		func(r tables.MissRow) string { return tables.Rate(r.L2Rate) },
		func(r SimResult) string { return tables.Rate(r.Summary.L2.MissRate()) })
	row("L2 compulsory",
		func(r tables.MissRow) string { return fmt.Sprintf("%d", r.Compulsory) },
		func(r SimResult) string { return k(r.Summary.L2.Compulsory) })
	row("L2 capacity",
		func(r tables.MissRow) string { return fmt.Sprintf("%d", r.Capacity) },
		func(r SimResult) string { return k(r.Summary.L2.Capacity) })
	row("L2 conflict",
		func(r tables.MissRow) string { return fmt.Sprintf("%d", r.Conflict) },
		func(r SimResult) string { return k(r.Summary.L2.Conflict) })

	first, last := order[0], order[len(order)-1]
	if scale > 1 {
		t.AddNote("counts in thousands; paper at full scale, sim at scaled geometry — compare ratios")
	} else {
		t.AddNote("counts in thousands; both columns at the paper's full problem size")
	}
	t.AddNote("L2 capacity shrink %s→%s: paper %s, sim %s", first, last,
		tables.Ratio(float64(paper[first].Capacity), float64(paper[last].Capacity)),
		tables.Ratio(float64(meas[first].Summary.L2.Capacity), float64(meas[last].Summary.L2.Capacity)))
	return t
}

// splitPair separates a runJobs result map keyed "r8/name" / "r10/name"
// into the per-machine maps the table renderers consume.
func splitPair(res map[string]SimResult) (r8, r10 map[string]SimResult) {
	r8, r10 = map[string]SimResult{}, map[string]SimResult{}
	for k, v := range res {
		if name, ok := strings.CutPrefix(k, "r8/"); ok {
			r8[name] = v
		} else if name, ok := strings.CutPrefix(k, "r10/"); ok {
			r10[name] = v
		}
	}
	return r8, r10
}

func schedNote(t *tables.Table, app string, rs core.RunStats) {
	p := tables.PaperSchedStats[app]
	t.AddNote("scheduler: paper %d threads in %d bins (avg %d); sim %d threads in %d bins (avg %.0f)",
		p.Threads, p.Bins, p.AvgPerBin, rs.Threads, rs.Bins, rs.AvgPerBin)
}

// Table2 reproduces Table 2: matrix multiply times.
func (c Config) Table2(prog Progress) *tables.Table {
	variants := []struct {
		name string
		v    MatmulVariant
	}{
		{"Interchanged", MatmulInterchanged},
		{"Transposed", MatmulTransposed},
		{"Tiled interchanged", MatmulTiledInterchanged},
		{"Tiled transposed", MatmulTiledTransposed},
		{"Threaded", MatmulThreaded},
	}
	var jobs []simJob
	for _, v := range variants {
		jobs = append(jobs,
			simJob{"r8/" + v.name, "table2: " + v.name + " on R8000",
				func(c Config) SimResult { return c.RunMatmul(v.v, c.R8000()) }},
			simJob{"r10/" + v.name, "table2: " + v.name + " on R10000",
				func(c Config) SimResult { return c.RunMatmul(v.v, c.R10000()) }})
	}
	r8m, r10m := splitPair(c.runJobs(prog, jobs))
	t := timeTable("Table 2", fmt.Sprintf("Matrix multiply performance in seconds (n=%d)", c.MatmulN),
		tables.Table2Order, tables.PaperTable2, r8m, r10m)
	schedNote(t, "matmul", r8m["Threaded"].Sched)
	return t
}

// Table3 reproduces Table 3: matmul references and cache misses, R8000.
func (c Config) Table3(prog Progress) *tables.Table {
	m := c.R8000()
	meas := c.runJobs(prog, []simJob{
		{"Untiled", "table3: untiled", func(c Config) SimResult { return c.RunMatmul(MatmulInterchanged, m) }},
		{"Tiled", "table3: tiled", func(c Config) SimResult { return c.RunMatmul(MatmulTiledInterchanged, m) }},
		{"Threaded", "table3: threaded", func(c Config) SimResult { return c.RunMatmul(MatmulThreaded, m) }},
	})
	return missTable("Table 3",
		fmt.Sprintf("Matmul memory references and cache misses in thousands (n=%d, %s)", c.MatmulN, m.Name),
		tables.Table3Order, tables.PaperTable3, meas, c.Scale)
}

// Table4 reproduces Table 4: PDE times.
func (c Config) Table4(prog Progress) *tables.Table {
	variants := []struct {
		name string
		v    PDEVariant
	}{
		{"Regular", PDERegular},
		{"Cache-conscious", PDECacheConscious},
		{"Threaded", PDEThreaded},
	}
	var jobs []simJob
	for _, v := range variants {
		jobs = append(jobs,
			simJob{"r8/" + v.name, "table4: " + v.name + " on R8000",
				func(c Config) SimResult { return c.RunPDE(v.v, c.R8000()) }},
			simJob{"r10/" + v.name, "table4: " + v.name + " on R10000",
				func(c Config) SimResult { return c.RunPDE(v.v, c.R10000()) }})
	}
	r8m, r10m := splitPair(c.runJobs(prog, jobs))
	return timeTable("Table 4", fmt.Sprintf("PDE performance in seconds (n=%d, %d iterations)", c.PDEN, c.PDEIters),
		tables.Table4Order, tables.PaperTable4, r8m, r10m)
}

// Table5 reproduces Table 5: PDE cache misses, R8000.
func (c Config) Table5(prog Progress) *tables.Table {
	m := c.R8000()
	meas := c.runJobs(prog, []simJob{
		{"Regular", "table5: regular", func(c Config) SimResult { return c.RunPDE(PDERegular, m) }},
		{"Cache-conscious", "table5: cache-conscious", func(c Config) SimResult { return c.RunPDE(PDECacheConscious, m) }},
		{"Threaded", "table5: threaded", func(c Config) SimResult { return c.RunPDE(PDEThreaded, m) }},
	})
	return missTable("Table 5",
		fmt.Sprintf("PDE cache misses in thousands (n=%d, %s)", c.PDEN, m.Name),
		tables.Table5Order, tables.PaperTable5, meas, c.Scale)
}

// Table6 reproduces Table 6: SOR times.
func (c Config) Table6(prog Progress) *tables.Table {
	variants := []struct {
		name string
		v    SORVariant
	}{
		{"Untiled", SORUntiled},
		{"Hand tiled", SORHandTiled},
		{"Threaded", SORThreaded},
	}
	var jobs []simJob
	for _, v := range variants {
		jobs = append(jobs,
			simJob{"r8/" + v.name, "table6: " + v.name + " on R8000",
				func(c Config) SimResult { return c.RunSOR(v.v, c.R8000()) }},
			simJob{"r10/" + v.name, "table6: " + v.name + " on R10000",
				func(c Config) SimResult { return c.RunSOR(v.v, c.R10000()) }})
	}
	r8m, r10m := splitPair(c.runJobs(prog, jobs))
	t := timeTable("Table 6", fmt.Sprintf("SOR performance in seconds (n=%d, t=%d)", c.SORN, c.SORIters),
		tables.Table6Order, tables.PaperTable6, r8m, r10m)
	schedNote(t, "sor", r8m["Threaded"].Sched)
	return t
}

// Table7 reproduces Table 7: SOR references and cache misses, R8000.
func (c Config) Table7(prog Progress) *tables.Table {
	m := c.R8000()
	meas := c.runJobs(prog, []simJob{
		{"Untiled", "table7: untiled", func(c Config) SimResult { return c.RunSOR(SORUntiled, m) }},
		{"Hand-tiled", "table7: hand-tiled", func(c Config) SimResult { return c.RunSOR(SORHandTiled, m) }},
		{"Threaded", "table7: threaded", func(c Config) SimResult { return c.RunSOR(SORThreaded, m) }},
	})
	return missTable("Table 7",
		fmt.Sprintf("SOR memory references and cache misses in thousands (n=%d, %s)", c.SORN, m.Name),
		tables.Table7Order, tables.PaperTable7, meas, c.Scale)
}

// Table8 reproduces Table 8: N-body times.
func (c Config) Table8(prog Progress) *tables.Table {
	r8m, r10m := splitPair(c.runJobs(prog, []simJob{
		{"r8/Unthreaded", "table8: unthreaded on R8000",
			func(c Config) SimResult { return c.RunNBody(NBodyUnthreaded, c.NBodyR8000(), c.NBodySteps) }},
		{"r10/Unthreaded", "table8: unthreaded on R10000",
			func(c Config) SimResult { return c.RunNBody(NBodyUnthreaded, c.NBodyR10000(), c.NBodySteps) }},
		{"r8/Threaded", "table8: threaded on R8000",
			func(c Config) SimResult { return c.RunNBody(NBodyThreaded, c.NBodyR8000(), c.NBodySteps) }},
		{"r10/Threaded", "table8: threaded on R10000",
			func(c Config) SimResult { return c.RunNBody(NBodyThreaded, c.NBodyR10000(), c.NBodySteps) }},
	}))
	t := timeTable("Table 8",
		fmt.Sprintf("N-body performance in seconds (%d bodies, %d steps)", c.NBodyN, c.NBodySteps),
		tables.Table8Order, tables.PaperTable8, r8m, r10m)
	schedNote(t, "nbody", r8m["Threaded"].Sched)
	return t
}

// Table9 reproduces Table 9: N-body cache misses, one iteration, R8000.
func (c Config) Table9(prog Progress) *tables.Table {
	m := c.NBodyR8000()
	meas := c.runJobs(prog, []simJob{
		{"Unthreaded", "table9: unthreaded", func(c Config) SimResult { return c.RunNBody(NBodyUnthreaded, m, 1) }},
		{"Threaded", "table9: threaded", func(c Config) SimResult { return c.RunNBody(NBodyThreaded, m, 1) }},
	})
	return missTable("Table 9",
		fmt.Sprintf("N-body memory references and cache misses in thousands (%d bodies, 1 step, %s)", c.NBodyN, m.Name),
		tables.Table9Order, tables.PaperTable9, meas, c.NBodyScale)
}

// Figure4RelativeBlocks is the block-size sweep of Figure 4, expressed
// relative to the L2 capacity C: the paper sweeps 64 KB … 8 MB on a 2 MB
// cache, i.e. C/32 … 4C.
var Figure4RelativeBlocks = []struct {
	Label string
	Num   uint64
	Den   uint64
}{
	{"C/32", 1, 32}, {"C/16", 1, 16}, {"C/8", 1, 8}, {"C/4", 1, 4},
	{"C/2", 1, 2}, {"C", 1, 1}, {"2C", 2, 1}, {"4C", 4, 1},
}

// Figure4 reproduces Figure 4: execution time of the four threaded
// programs versus the scheduler block dimension size, on the (scaled)
// R8000. Times are the cost-model estimate in seconds.
func (c Config) Figure4(prog Progress) *tables.Table {
	m := c.R8000()
	nm := c.NBodyR8000()
	t := &tables.Table{
		ID: "Figure 4",
		Title: fmt.Sprintf("Execution time (s) versus block dimension size (%s, C=%d KB)",
			m.Name, m.L2CacheSize()>>10),
		Columns: []string{"block", "matrix multiply", "SOR", "PDE", "N-body"},
	}
	var jobs []simJob
	for _, b := range Figure4RelativeBlocks {
		block := m.L2CacheSize() * b.Num / b.Den
		nblock := nm.L2CacheSize() * b.Num / b.Den
		jobs = append(jobs,
			simJob{b.Label + "/matmul", "figure4: block " + b.Label + " matmul",
				func(c Config) SimResult { return c.RunMatmulThreadedBlock(m, block) }},
			simJob{b.Label + "/sor", "figure4: block " + b.Label + " SOR",
				func(c Config) SimResult { return c.RunSORThreadedBlock(m, block) }},
			simJob{b.Label + "/pde", "figure4: block " + b.Label + " PDE",
				func(c Config) SimResult { return c.RunPDEThreadedBlock(m, block) }},
			simJob{b.Label + "/nbody", "figure4: block " + b.Label + " N-body",
				func(c Config) SimResult { return c.RunNBodyThreadedBlock(nm, nblock) }})
	}
	meas := c.runJobs(prog, jobs)
	for _, b := range Figure4RelativeBlocks {
		t.AddRow(b.Label,
			tables.Seconds(meas[b.Label+"/matmul"].Seconds()),
			tables.Seconds(meas[b.Label+"/sor"].Seconds()),
			tables.Seconds(meas[b.Label+"/pde"].Seconds()),
			tables.Seconds(meas[b.Label+"/nbody"].Seconds()))
	}
	t.AddNote("paper shape: %s", tables.Figure4Shape)
	return t
}
