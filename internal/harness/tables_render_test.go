package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	update    = flag.Bool("update", false, "rewrite testdata/quick/*.txt from the current rendering")
	scaledRun = flag.String("scaled-run", "", "compare this locality-bench -size scaled output with results/scaled_run.txt (make results-check)")
)

// maskHostTimed blanks what the host's clock decides rather than the
// simulation in rendered locality-bench text: the cells of Table 1's
// live host-measured column (its last), which read <host>, and any note
// line that mentions wall time, which reads <wall time>. Every other
// cell and note of every experiment is pinned as rendered.
func maskHostTimed(text string) string {
	lines := strings.Split(text, "\n")
	table1, body := false, false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "Table 1:"):
			table1 = true
		case l == "":
			table1, body = false, false
		case strings.HasPrefix(l, "  note: ") && strings.Contains(l, "wall time"):
			lines[i] = "  note: <wall time>"
		case strings.HasPrefix(l, "  note: "):
			body = false
		case table1 && strings.HasPrefix(l, "  ---"):
			body = true
		case body && !strings.HasSuffix(l, " "):
			// The host cell is right-aligned in a column at least as wide
			// as its header, so <host> takes the place of its last bytes.
			cell := l[strings.LastIndexByte(l, ' ')+1:]
			n := max(len(cell), len("<host>"))
			lines[i] = l[:len(l)-n] + fmt.Sprintf("%*s", n, "<host>")
		}
	}
	return strings.Join(lines, "\n")
}

// renderChecks are each experiment's shape expectations at the Quick
// geometry: its body row count and strings its rendering must contain.
var renderChecks = map[string]struct {
	rows     int
	contains []string
}{
	"table1":    {4, []string{"Fork", "1.38"}},
	"table2":    {5, []string{"Interchanged", "102.98", "scheduler:"}},
	"table3":    {9, []string{"L2 capacity", "68025"}},
	"table4":    {3, []string{"Cache-conscious", "5.21"}},
	"table5":    {9, []string{"5251"}},
	"table6":    {3, []string{"Hand tiled", "26.90"}},
	"table7":    {9, []string{"7294"}},
	"table8":    {2, []string{"153.81"}},
	"table9":    {9, []string{"1131"}},
	"figure4":   {8, []string{"C/32", "4C"}},
	"ablations": {12, []string{"hilbert", "work-stealing", "bin footprint"}},
	"modern":    {3, []string{"Interchanged", "Modern L3 misses"}},
}

// Every experiment in Experiments must produce a well-formed table at
// the Quick geometry: expected row counts, paper values present, no
// empty cells in the first column. Its rendering, with maskHostTimed
// applied, must match testdata/quick/<exp>.txt byte for byte at Parallel
// 1 and 2, so a changed number anywhere in any table fails here, and so
// does an experiment without a golden (go test -run
// TestAllExperimentTablesRender -update rewrites the goldens).
func TestAllExperimentTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulation")
	}
	for _, e := range Experiments {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			check, ok := renderChecks[e.Name]
			if !ok {
				t.Fatalf("no shape expectations for experiment %q in renderChecks", e.Name)
			}
			golden := filepath.Join("testdata", "quick", e.Name+".txt")
			for _, parallel := range []int{1, 2} {
				c := Quick()
				c.Table1Threads = 1 << 14
				c.Parallel = parallel
				out := maskHostTimed(e.Render(c, nil).String())
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
						e.Name, parallel, golden, out, want)
				}
				if parallel == 1 {
					checkRendered(t, e.Name, out, check.rows, check.contains)
				}
			}
		})
	}
}

// TestScaledRunMatchesResults is make results-check: it compares a fresh
// locality-bench -size scaled output, named by -scaled-run, with the
// committed results/scaled_run.txt under the goldens' masking rule, and
// names every line that differs. Without -scaled-run it skips.
func TestScaledRunMatchesResults(t *testing.T) {
	if *scaledRun == "" {
		t.Skip("set -scaled-run to a locality-bench -size scaled output (make results-check)")
	}
	got, err := os.ReadFile(*scaledRun)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "scaled_run.txt"))
	if err != nil {
		t.Fatal(err)
	}
	gl := strings.Split(maskHostTimed(string(got)), "\n")
	wl := strings.Split(maskHostTimed(string(want)), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("results/scaled_run.txt line %d:\n got %q\nwant %q", i+1, g, w)
		}
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
