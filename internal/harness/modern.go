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
	modern := machine.Modern()
	t := &tables.Table{
		ID: "Modern",
		Title: fmt.Sprintf("Matmul (n=%d) on the 1996 R8000 vs a modern 3-level core (L3 %d MB)",
			c.MatmulN, modern.Caches.L3.Size>>20),
		Columns: []string{"", "R8000 sim (s)", "Modern sim (s)",
			"Modern L2 misses", "Modern L3 misses"},
	}
	res := c.runJobs(prog, modernRows)
	for _, v := range modernVariants {
		now := res["modern/"+v.label]
		t.AddRow(v.label,
			tables.Seconds(res["r8000/"+v.label].Seconds()),
			fmt.Sprintf("%.4f", now.Seconds()),
			fmt.Sprintf("%d", now.Summary.L2.Misses),
			fmt.Sprintf("%d", now.Summary.L3.Misses))
	}
	un, th := res["modern/Interchanged"], res["modern/Threaded"]
	t.AddNote("untiled/threaded speedup on the modern core: %s (the R8000's was the paper's headline)",
		tables.Ratio(un.Seconds(), th.Seconds()))
	t.AddNote("the whole problem fits the modern L3, and next-line prefetch hides the streaming misses")
	return t
}

// modernVariants are the matmul variants the Modern table compares.
var modernVariants = []variant{
	{"Interchanged", "interchanged"}, {"Tiled interchanged", "tiled-interchanged"}, {"Threaded", "threaded"},
}

// modernRows declares the Modern table's rows: each variant on the scaled
// R8000 and on the unscaled modern core.
var modernRows = pairRows(JobMatmul, "modern", modernVariants...)
