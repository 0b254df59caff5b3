package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is one experiment's result: titled rows of cells, plus free-form
// notes (the paper claim the numbers speak to).
type Table struct {
	// ID is the experiment id (E1..E10, A1..).
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data cells.
	Rows [][]string
	// Notes record the paper's qualitative claim and any caveats.
	Notes []string
	// loadDependent names the columns whose cells vary from run to run
	// with the host's speed (wall-clock readings, counts of work a
	// free-running reader got through). Every other cell is deterministic
	// and pinned by testdata/cohbench.golden.
	loadDependent []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)

	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// f2 formats a fraction with two decimals.
func f2(v float64) string {
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// itoa formats an int.
func itoa(v int) string { return strconv.Itoa(v) }
