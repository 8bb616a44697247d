package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"threadsched/internal/tables"
)

var update = flag.Bool("update", false, "rewrite testdata/quick/*.txt from the current rendering")

// maskHostTimed blanks what the host's clock decides rather than the
// simulation: Table 1's live host-measured column and any wall-time note.
// Every other cell and note of every experiment is pinned by its golden.
func maskHostTimed(t *tables.Table) {
	if t.ID == "Table 1" {
		host := len(t.Columns) - 1
		for _, row := range t.Rows {
			if row[host] != "" {
				row[host] = "<host>"
			}
		}
	}
	for i, n := range t.Notes {
		if strings.Contains(n, "wall time") {
			t.Notes[i] = "<wall time>"
		}
	}
}

// Every experiment builder must produce a well-formed table at the Quick
// geometry: expected row counts, paper values present, no empty cells in
// the first column. Its rendering, with maskHostTimed applied, must match
// testdata/quick/<exp>.txt byte for byte at Parallel 1 and 2, so a
// changed number anywhere in any table fails here (go test -run
// TestAllExperimentTablesRender -update rewrites the goldens).
func TestAllExperimentTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulation")
	}
	var prog Progress

	cases := []struct {
		name     string
		build    func(c Config) *tables.Table
		rows     int
		contains []string
	}{
		{"table1", func(c Config) *tables.Table { return c.Table1() }, 4, []string{"Fork", "1.38"}},
		{"table2", func(c Config) *tables.Table { return c.Table2(prog) }, 5, []string{"Interchanged", "102.98", "scheduler:"}},
		{"table3", func(c Config) *tables.Table { return c.Table3(prog) }, 9, []string{"L2 capacity", "68025"}},
		{"table4", func(c Config) *tables.Table { return c.Table4(prog) }, 3, []string{"Cache-conscious", "5.21"}},
		{"table5", func(c Config) *tables.Table { return c.Table5(prog) }, 9, []string{"5251"}},
		{"table6", func(c Config) *tables.Table { return c.Table6(prog) }, 3, []string{"Hand tiled", "26.90"}},
		{"table7", func(c Config) *tables.Table { return c.Table7(prog) }, 9, []string{"7294"}},
		{"table8", func(c Config) *tables.Table { return c.Table8(prog) }, 2, []string{"153.81"}},
		{"table9", func(c Config) *tables.Table { return c.Table9(prog) }, 9, []string{"1131"}},
		{"figure4", func(c Config) *tables.Table { return c.Figure4(prog) }, 8, []string{"C/32", "4C"}},
		{"ablations", func(c Config) *tables.Table { return c.Ablations(prog) }, 12, []string{"hilbert", "work-stealing", "bin footprint"}},
		{"modern", func(c Config) *tables.Table { return c.Modern(prog) }, 3, []string{"Interchanged", "Modern L3 misses"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			golden := filepath.Join("testdata", "quick", tc.name+".txt")
			for _, parallel := range []int{1, 2} {
				c := Quick()
				c.Table1Threads = 1 << 14
				c.Parallel = parallel
				tab := tc.build(c)
				maskHostTimed(tab)
				out := tab.String()
				if *update && parallel == 1 {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if out != string(want) {
					t.Errorf("%s at Parallel %d differs from %s:\ngot:\n%s\nwant:\n%s",
						tc.name, parallel, golden, out, want)
				}
				if parallel == 1 {
					checkRendered(t, tc.name, out, tc.rows, tc.contains)
				}
			}
		})
	}
}

// checkRendered asserts a rendered table carries the wanted substrings and
// exactly rows body rows (lines after the separator, before the notes).
func checkRendered(t *testing.T, name, out string, rows int, contains []string) {
	t.Helper()
	for _, want := range contains {
		if !strings.Contains(out, want) {
			t.Errorf("%s output missing %q:\n%s", name, want, out)
		}
	}
	got := 0
	inBody := false
	for _, l := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(l), "---"):
			inBody = true
		case strings.HasPrefix(strings.TrimSpace(l), "note:"), strings.TrimSpace(l) == "":
			inBody = false
		case inBody:
			got++
		}
	}
	if got != rows {
		t.Errorf("%s has %d body rows, want %d:\n%s", name, got, rows, out)
	}
}
