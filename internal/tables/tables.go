// Package tables renders experiment results as aligned text tables and
// records the paper's published numbers (Tables 1–9 and Figure 4) so every
// harness run can print paper-vs-measured side by side.
package tables

import (
	"fmt"
	"io"
	"strings"
)

// Table is a renderable result table.
type Table struct {
	// ID is the experiment identifier ("Table 2", "Figure 4").
	ID string
	// Title is the caption.
	Title string
	// Columns are the header cells; Columns[0] labels the row-name column.
	Columns []string
	// Rows are the body cells; each row must have len(Columns) cells.
	Rows [][]string
	// Notes are free-form lines printed under the table.
	Notes []string
}

// AddRow appends a row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "%s: %s\n", t.ID, t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i == 0 {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = fmt.Sprintf("%*s", widths[i], c)
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	total := 2
	for _, w := range widths {
		total += w + 2
	}
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", total-2))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// RenderCSV writes the table as RFC-4180-style CSV (header row first,
// notes as trailing comment lines), for plotting the figures.
func (t *Table) RenderCSV(w io.Writer) {
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			parts[i] = c
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
	header := append([]string(nil), t.Columns...)
	if len(header) > 0 && header[0] == "" {
		header[0] = "row"
	}
	writeRow(header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// Seconds formats a duration-in-seconds value the way the paper's timing
// tables do.
func Seconds(s float64) string { return fmt.Sprintf("%.2f", s) }

// Thousands formats a count in thousands, the unit of the paper's miss
// tables.
func Thousands(v uint64) string { return fmt.Sprintf("%d", (v+500)/1000) }

// Rate formats a percentage with one decimal, as in the miss tables.
func Rate(r float64) string { return fmt.Sprintf("%.1f", r) }

// Ratio formats a speedup/shrink factor.
func Ratio(num, den float64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", num/den)
}
