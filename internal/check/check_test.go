package check

import (
	"strings"
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

// count returns the number of findings at the given severity.
func count(r *Report, sev Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == sev {
			n++
		}
	}
	return n
}

func TestWorldClean(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	if _, err := tr.Create(core.ParsePath("a/b"), "x"); err != nil {
		t.Fatal(err)
	}
	r := World(w)
	if count(r, Error) != 0 || len(r.Findings) != 0 {
		t.Fatalf("clean world reported: %s", r)
	}
	if r.String() != "clean" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestWorldDanglingBinding(t *testing.T) {
	w := core.NewWorld()
	_, ctx := w.NewContextObject("dir")
	// Bind to an entity of a different world — a dangling reference.
	foreign := core.Entity{ID: 9999, Kind: core.KindObject}
	ctx.Bind("ghost", foreign)
	r := World(w)
	if count(r, Error) == 0 {
		t.Fatal("dangling binding not detected")
	}
	if count(r, Error) != 1 {
		t.Fatalf("errors = %d", count(r, Error))
	}
	if !strings.Contains(r.String(), "dangling-binding") {
		t.Fatalf("report: %s", r)
	}
}

func TestWorldCycleReported(t *testing.T) {
	w := core.NewWorld()
	a, aCtx := w.NewContextObject("a")
	b, bCtx := w.NewContextObject("b")
	aCtx.Bind("b", b)
	bCtx.Bind("a", a)
	r := World(w)
	if count(r, Error) != 0 {
		t.Fatalf("cycle should not be an error: %s", r)
	}
	if count(r, Info) != 1 {
		t.Fatalf("info = %d, report: %s", count(r, Info), r)
	}
	if !strings.Contains(r.String(), "cycle") {
		t.Fatalf("report: %s", r)
	}
}

func TestWorldSelfLoopReported(t *testing.T) {
	w := core.NewWorld()
	d, ctx := w.NewContextObject("d")
	ctx.Bind("self", d)
	r := World(w)
	if count(r, Info) != 1 {
		t.Fatalf("self-loop not reported: %s", r)
	}
}

func TestSeverityStrings(t *testing.T) {
	if Info.String() != "info" || Error.String() != "error" {
		t.Fatal("severity strings wrong")
	}
	if Severity(0).String() != "unknown" {
		t.Fatal("zero severity string wrong")
	}
}
