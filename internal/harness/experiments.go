package harness

import (
	"fmt"
	"strings"
	"time"

	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/tables"
)

// Experiment is one table or figure the harness renders.
type Experiment struct {
	// Name is what locality-bench's -exp and a served table job call it.
	Name string
	// What is the one-line description locality-bench -list prints.
	What string
	// Render runs the experiment's simulations at c and renders it.
	Render func(c Config, prog Progress) *tables.Table
}

// Experiments lists every experiment, in the order locality-bench runs
// them. It is the one place an experiment is named.
var Experiments = []Experiment{
	{"table1", "thread fork/run overhead (µs), modelled + live host measurement",
		func(c Config, _ Progress) *tables.Table { return c.Table1() }},
	{"table2", "matrix multiply times: 5 variants × 2 machines", Config.Table2},
	{"table3", "matrix multiply references & classified cache misses (R8000)", Config.Table3},
	{"table4", "red-black PDE solver times: 3 variants × 2 machines", Config.Table4},
	{"table5", "PDE references & classified cache misses (R8000)", Config.Table5},
	{"table6", "SOR kernel times: 3 variants × 2 machines", Config.Table6},
	{"table7", "SOR references & classified cache misses (R8000)", Config.Table7},
	{"table8", "Barnes-Hut N-body times: 2 variants × 2 machines", Config.Table8},
	{"table9", "N-body references & classified cache misses (R8000)", Config.Table9},
	{"figure4", "execution time vs scheduler block size, all four workloads", Config.Figure4},
	{"ablations", "design-choice experiments: bin tours, hint folding, page placement", Config.Ablations},
	{"modern", "the 1996 technique on a modern 3-level prefetching core", Config.Modern},
}

// LookupExperiment finds an experiment in Experiments by name, in any
// case; an unknown name is an error wrapping ErrBadJobSpec.
func LookupExperiment(name string) (Experiment, error) {
	for _, e := range Experiments {
		if strings.EqualFold(e.Name, name) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w: unknown experiment %q", ErrBadJobSpec, name)
}

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

// splitPair separates a pairRows result map into the per-machine maps
// the time-table renderer consumes.
func splitPair(res map[string]SimResult) (r8, r10 map[string]SimResult) {
	r8, r10 = map[string]SimResult{}, map[string]SimResult{}
	for k, v := range res {
		if name, ok := strings.CutPrefix(k, "r8000/"); ok {
			r8[name] = v
		} else if name, ok := strings.CutPrefix(k, "r10000/"); ok {
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

// variant pairs a table's row label with the JobSpec variant it runs.
type variant struct{ label, name string }

// pairRows declares a two-machine table's rows: each variant of kind on
// the R8000 and then on machine other, keyed "<machine>/<label>".
func pairRows(kind JobKind, other string, variants ...variant) []row {
	var rows []row
	for _, v := range variants {
		for _, m := range []string{"r8000", other} {
			rows = append(rows, row{m + "/" + v.label, JobSpec{Kind: kind, Variant: v.name, Machine: m}})
		}
	}
	return rows
}

// r8000Rows declares a miss table's rows: each variant of kind on the
// R8000, keyed by its label, for steps N-body steps (0 = the default).
func r8000Rows(kind JobKind, steps int, variants ...variant) []row {
	var rows []row
	for _, v := range variants {
		rows = append(rows, row{v.label, JobSpec{Kind: kind, Variant: v.name, Machine: "r8000", Steps: steps}})
	}
	return rows
}

// The rows of Tables 2–9. The miss tables re-run jobs of the time tables
// under their own labels: Table 3's are Table 2's R8000 jobs, Table 5's
// Table 4's, and Table 7's Table 6's.
var (
	table2Rows = pairRows(JobMatmul, "r10000", variant{"Interchanged", "interchanged"},
		variant{"Transposed", "transposed"}, variant{"Tiled interchanged", "tiled-interchanged"},
		variant{"Tiled transposed", "tiled-transposed"}, variant{"Threaded", "threaded"})
	table3Rows = r8000Rows(JobMatmul, 0, variant{"Untiled", "interchanged"},
		variant{"Tiled", "tiled-interchanged"}, variant{"Threaded", "threaded"})
	table4Rows = pairRows(JobPDE, "r10000", variant{"Regular", "regular"},
		variant{"Cache-conscious", "cache-conscious"}, variant{"Threaded", "threaded"})
	table5Rows = r8000Rows(JobPDE, 0, variant{"Regular", "regular"},
		variant{"Cache-conscious", "cache-conscious"}, variant{"Threaded", "threaded"})
	table6Rows = pairRows(JobSOR, "r10000", variant{"Untiled", "untiled"},
		variant{"Hand tiled", "hand-tiled"}, variant{"Threaded", "threaded"})
	table7Rows = r8000Rows(JobSOR, 0, variant{"Untiled", "untiled"},
		variant{"Hand-tiled", "hand-tiled"}, variant{"Threaded", "threaded"})
	table8Rows = pairRows(JobNBody, "r10000", variant{"Unthreaded", "unthreaded"}, variant{"Threaded", "threaded"})
	table9Rows = r8000Rows(JobNBody, 1, variant{"Unthreaded", "unthreaded"}, variant{"Threaded", "threaded"})
)

// Table2 reproduces Table 2: matrix multiply times.
func (c Config) Table2(prog Progress) *tables.Table {
	r8m, r10m := splitPair(c.runJobs(prog, table2Rows))
	t := timeTable("Table 2", fmt.Sprintf("Matrix multiply performance in seconds (n=%d)", c.MatmulN),
		tables.Table2Order, tables.PaperTable2, r8m, r10m)
	schedNote(t, "matmul", r8m["Threaded"].Sched)
	return t
}

// Table3 reproduces Table 3: matmul references and cache misses, R8000.
func (c Config) Table3(prog Progress) *tables.Table {
	return missTable("Table 3",
		fmt.Sprintf("Matmul memory references and cache misses in thousands (n=%d, %s)", c.MatmulN, c.R8000().Name),
		tables.Table3Order, tables.PaperTable3, c.runJobs(prog, table3Rows), c.Scale)
}

// Table4 reproduces Table 4: PDE times.
func (c Config) Table4(prog Progress) *tables.Table {
	r8m, r10m := splitPair(c.runJobs(prog, table4Rows))
	return timeTable("Table 4", fmt.Sprintf("PDE performance in seconds (n=%d, %d iterations)", c.PDEN, c.PDEIters),
		tables.Table4Order, tables.PaperTable4, r8m, r10m)
}

// Table5 reproduces Table 5: PDE cache misses, R8000.
func (c Config) Table5(prog Progress) *tables.Table {
	return missTable("Table 5",
		fmt.Sprintf("PDE cache misses in thousands (n=%d, %s)", c.PDEN, c.R8000().Name),
		tables.Table5Order, tables.PaperTable5, c.runJobs(prog, table5Rows), c.Scale)
}

// Table6 reproduces Table 6: SOR times.
func (c Config) Table6(prog Progress) *tables.Table {
	r8m, r10m := splitPair(c.runJobs(prog, table6Rows))
	t := timeTable("Table 6", fmt.Sprintf("SOR performance in seconds (n=%d, t=%d)", c.SORN, c.SORIters),
		tables.Table6Order, tables.PaperTable6, r8m, r10m)
	schedNote(t, "sor", r8m["Threaded"].Sched)
	return t
}

// Table7 reproduces Table 7: SOR references and cache misses, R8000.
func (c Config) Table7(prog Progress) *tables.Table {
	return missTable("Table 7",
		fmt.Sprintf("SOR memory references and cache misses in thousands (n=%d, %s)", c.SORN, c.R8000().Name),
		tables.Table7Order, tables.PaperTable7, c.runJobs(prog, table7Rows), c.Scale)
}

// Table8 reproduces Table 8: N-body times.
func (c Config) Table8(prog Progress) *tables.Table {
	r8m, r10m := splitPair(c.runJobs(prog, table8Rows))
	t := timeTable("Table 8",
		fmt.Sprintf("N-body performance in seconds (%d bodies, %d steps)", c.NBodyN, c.NBodySteps),
		tables.Table8Order, tables.PaperTable8, r8m, r10m)
	schedNote(t, "nbody", r8m["Threaded"].Sched)
	return t
}

// Table9 reproduces Table 9: N-body cache misses, one iteration, R8000.
func (c Config) Table9(prog Progress) *tables.Table {
	return missTable("Table 9",
		fmt.Sprintf("N-body memory references and cache misses in thousands (%d bodies, 1 step, %s)", c.NBodyN, c.NBodyR8000().Name),
		tables.Table9Order, tables.PaperTable9, c.runJobs(prog, table9Rows), c.NBodyScale)
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
	t := &tables.Table{
		ID: "Figure 4",
		Title: fmt.Sprintf("Execution time (s) versus block dimension size (%s, C=%d KB)",
			m.Name, m.L2CacheSize()>>10),
		Columns: []string{"block", "matrix multiply", "SOR", "PDE", "N-body"},
	}
	meas := c.runJobs(prog, c.figure4Rows())
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

// figure4Rows declares Figure 4's rows: the four threaded kernels on the
// R8000 at every block size of the sweep, N-body for one step. The
// block is relative to each kernel's own (scaled) L2, so the C/2 row of
// matmul, SOR and PDE is the paper-default threaded job of Tables 2, 6
// and 4.
func (c Config) figure4Rows() []row {
	var rows []row
	for _, b := range Figure4RelativeBlocks {
		block := c.R8000().L2CacheSize() * b.Num / b.Den
		nblock := c.NBodyR8000().L2CacheSize() * b.Num / b.Den
		rows = append(rows,
			row{b.Label + "/matmul", JobSpec{Kind: JobMatmul, Block: block}},
			row{b.Label + "/sor", JobSpec{Kind: JobSOR, Block: block}},
			row{b.Label + "/pde", JobSpec{Kind: JobPDE, Block: block}},
			row{b.Label + "/nbody", JobSpec{Kind: JobNBody, Block: nblock, Steps: 1}})
	}
	return rows
}
