package core

import (
	"strings"
	"testing"
)

func TestGraphSnapshot(t *testing.T) {
	w, _, ents := buildTree(t)
	edges := w.Graph()
	// 5 bindings in buildTree: usr, etc, self from root; bin from usr; ls from bin.
	if len(edges) != 5 {
		t.Fatalf("len(edges) = %d, want 5", len(edges))
	}
	found := false
	for _, e := range edges {
		if e.From == ents["usr"] && e.Label == "bin" && e.To == ents["bin"] {
			found = true
		}
	}
	if !found {
		t.Fatal("missing edge usr --bin--> bin")
	}
}

func TestGraphOrdering(t *testing.T) {
	w, _, _ := buildTree(t)
	edges := w.Graph()
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a.From.ID > b.From.ID {
			t.Fatal("edges not ordered by From.ID")
		}
		if a.From.ID == b.From.ID && a.Label > b.Label {
			t.Fatal("edges not ordered by Label within a node")
		}
	}
}

func TestReachable(t *testing.T) {
	w, _, ents := buildTree(t)
	seen := w.Reachable(ents["root"])
	for _, name := range []string{"root", "usr", "bin", "etc", "ls", "act"} {
		if !seen[ents[name].ID] {
			t.Errorf("%s not reachable from root", name)
		}
	}
	fromBin := w.Reachable(ents["bin"])
	if fromBin[ents["root"].ID] {
		t.Error("root should not be reachable from bin")
	}
	if !fromBin[ents["ls"].ID] {
		t.Error("ls should be reachable from bin")
	}
}

func TestReachableWithCycle(t *testing.T) {
	w := NewWorld()
	a, aCtx := w.NewContextObject("a")
	b, bCtx := w.NewContextObject("b")
	aCtx.Bind("b", b)
	bCtx.Bind("a", a)
	seen := w.Reachable(a)
	if !seen[a.ID] || !seen[b.ID] {
		t.Fatal("cycle members not all reachable")
	}
}

func TestDumpGraph(t *testing.T) {
	w, _, _ := buildTree(t)
	var sb strings.Builder
	if err := w.DumpGraph(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "--usr-->") || !strings.Contains(out, "(root)") {
		t.Fatalf("unexpected dump:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 5 {
		t.Fatalf("dump has %d lines, want 5", got)
	}
}

func TestDumpDot(t *testing.T) {
	w, _, _ := buildTree(t)
	var sb strings.Builder
	if err := w.DumpDot(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph naming {", "shape=folder", "shape=box", "shape=ellipse", `label="usr"`, "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	// Each node declared exactly once.
	if strings.Count(out, `label="root"`) != 1 {
		t.Fatalf("root declared more than once:\n%s", out)
	}
}
