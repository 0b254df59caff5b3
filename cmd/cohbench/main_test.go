package main

import (
	"bytes"
	"strings"
	"testing"

	"namecoherence/internal/experiments"
)

// -list prints the index and runs nothing: one "id title" line per entry,
// no table.
func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	index := experiments.Index()
	if len(lines) != len(index) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(index), out.String())
	}
	for i, e := range index {
		if f := strings.Fields(lines[i]); f[0] != e.ID || !strings.HasSuffix(lines[i], " "+e.Title) {
			t.Errorf("line %d = %q, want id %s and title %q", i, lines[i], e.ID, e.Title)
		}
	}
	if strings.Contains(out.String(), "==") {
		t.Errorf("-list printed a table:\n%s", out.String())
	}
}

// -only E9 runs E9 alone: the output is that one table.
func TestRunOnly(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "E9"}, &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n== ") + 1; n != 1 || !strings.HasPrefix(out.String(), "== E9: ") {
		t.Errorf("-only E9 printed %d tables:\n%s", n, out.String())
	}
}

func TestRunOnlyUnknown(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "E99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if out.Len() != 0 {
		t.Errorf("unknown id still printed:\n%s", out.String())
	}
}
