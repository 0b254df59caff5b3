package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/cohbench.golden from this run")

// masked is the golden file's placeholder for a load-dependent cell.
const masked = "~"

// goldenText renders tb as cmd/cohbench prints it (String, then a blank
// line), with every cell of a load-dependent column replaced by the
// placeholder so that neither the cell nor the column's width depends on
// the run.
func goldenText(t *testing.T, tb *Table) string {
	t.Helper()
	stable := *tb
	stable.Rows = make([][]string, len(tb.Rows))
	for i, row := range tb.Rows {
		stable.Rows[i] = append([]string(nil), row...)
	}
	for _, name := range tb.loadDependent {
		col := -1
		for i, h := range tb.Header {
			if h == name {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("%s marks column %q load-dependent, header has none: %v", tb.ID, name, tb.Header)
		}
		for _, row := range stable.Rows {
			if col < len(row) {
				row[col] = masked
			}
		}
	}
	return stable.String() + "\n"
}

// TestAllGolden pins every deterministic cell, header, note and title of
// E1–E17/A1–A5 to testdata/cohbench.golden: a refactor's "same tables" is
// this test passing. `go test ./internal/experiments -run TestAllGolden
// -update` regenerates the file after a deliberate change to a table.
func TestAllGolden(t *testing.T) {
	path := filepath.Join("testdata", "cohbench.golden")
	index := Index()
	var want []string
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// One section per table; no table prints an empty line of its own.
		want = strings.SplitAfter(string(data), "\n\n")
		want = want[:len(want)-1]
		if len(want) != len(index) {
			t.Fatalf("%s holds %d tables, the index %d", path, len(want), len(index))
		}
	}
	got := make([]string, len(index))
	for i, e := range index {
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tb.ID != e.ID || tb.Title != e.Title {
				t.Fatalf("index entry %s %q ran table %s %q", e.ID, e.Title, tb.ID, tb.Title)
			}
			got[i] = goldenText(t, tb)
			if !*update && got[i] != want[i] {
				t.Errorf("%s differs from %s\n--- got\n%s--- want\n%s", e.ID, path, got[i], want[i])
			}
		})
	}
	if !*update {
		return
	}
	for i, s := range got {
		if s == "" {
			t.Fatalf("-update needs every table and %s did not run (a -run filter, or a failure above)", index[i].ID)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Join(got, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}
