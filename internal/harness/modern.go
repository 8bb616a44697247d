package harness

import (
	"fmt"

	"threadsched/internal/machine"
	"threadsched/internal/tables"
)

// Modern runs the matrix-multiply variants on a three-level 2020s-style
// machine model next to the 1996 R8000, quantifying the fate of the
// paper's technique on hardware whose last-level cache is larger than the
// whole problem and whose prefetchers hide streaming misses: the
// untiled-to-threaded gap collapses.
func (c Config) Modern(prog Progress) *tables.Table {
	r8 := c.R8000()
	modern := machine.Modern()
	t := &tables.Table{
		ID: "Modern",
		Title: fmt.Sprintf("Matmul (n=%d) on the 1996 R8000 vs a modern 3-level core (L3 %d MB)",
			c.MatmulN, modern.Caches.L3.Size>>20),
		Columns: []string{"", "R8000 sim (s)", "Modern sim (s)",
			"Modern L2 misses", "Modern L3 misses"},
	}
	variants := []struct {
		name string
		v    MatmulVariant
	}{
		{"Interchanged", MatmulInterchanged},
		{"Tiled interchanged", MatmulTiledInterchanged},
		{"Threaded", MatmulThreaded},
	}
	var jobs []simJob
	for _, v := range variants {
		jobs = append(jobs,
			simJob{"r8/" + v.name, "modern: " + v.name + " on R8000",
				func(c Config) SimResult { return c.RunMatmul(v.v, r8) }},
			simJob{"r10/" + v.name, "modern: " + v.name + " on Modern",
				func(c Config) SimResult { return c.RunMatmul(v.v, modern) }})
	}
	old, res := splitPair(c.runJobs(prog, jobs))
	for _, v := range variants {
		now := res[v.name]
		t.AddRow(v.name,
			tables.Seconds(old[v.name].Seconds()),
			fmt.Sprintf("%.4f", now.Seconds()),
			fmt.Sprintf("%d", now.Summary.L2.Misses),
			fmt.Sprintf("%d", now.Summary.L3.Misses))
	}
	un, th := res["Interchanged"], res["Threaded"]
	t.AddNote("untiled/threaded speedup on the modern core: %s (the R8000's was the paper's headline)",
		tables.Ratio(un.Seconds(), th.Seconds()))
	t.AddNote("the whole problem fits the modern L3, and next-line prefetch hides the streaming misses")
	return t
}
