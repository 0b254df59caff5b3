package trace

import (
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

func build(t *testing.T) (*core.World, *dirtree.Tree, *Counter) {
	t.Helper()
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	if _, err := tr.Create(core.ParsePath("a/b/leaf"), "x"); err != nil {
		t.Fatal(err)
	}
	c := NewCounter()
	if wrapped := InstrumentReachable(w, tr.Root, c); wrapped != 3 {
		t.Fatalf("wrapped = %d, want 3 (root, a, b)", wrapped)
	}
	return w, tr, c
}

func TestCountsPerLevel(t *testing.T) {
	_, tr, c := build(t)
	// Fetch the level-1 directory before counting starts mattering.
	a, err := tr.Lookup(core.PathOf("a"))
	if err != nil {
		t.Fatal(err)
	}
	rootBefore, aBefore := c.Count(tr.Root), c.Count(a)

	// Each full resolution of a/b/leaf does one lookup in each of the
	// root, a and b contexts.
	for i := 0; i < 10; i++ {
		if _, err := tr.Lookup(core.ParsePath("a/b/leaf")); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Count(tr.Root) - rootBefore; got != 10 {
		t.Fatalf("root count = %d, want 10", got)
	}
	if got := c.Count(a) - aBefore; got != 10 {
		t.Fatalf("a count = %d, want 10", got)
	}
}

func TestTopOrdering(t *testing.T) {
	_, tr, c := build(t)
	for i := 0; i < 5; i++ {
		if _, err := tr.Lookup(core.ParsePath("a/b/leaf")); err != nil {
			t.Fatal(err)
		}
	}
	// One extra lookup that only touches the root.
	if _, err := tr.Lookup(core.PathOf("a")); err != nil {
		t.Fatal(err)
	}
	top := c.Top(2)
	if len(top) != 2 {
		t.Fatalf("Top = %v", top)
	}
	if top[0].Entity != tr.Root.ID || top[0].Count != 6 {
		t.Fatalf("hottest = %+v, want root with 6", top[0])
	}
	if top[1].Count > top[0].Count {
		t.Fatal("Top not descending")
	}
}

func TestInstrumentIdempotent(t *testing.T) {
	w, tr, c := build(t)
	if again := InstrumentReachable(w, tr.Root, c); again != 0 {
		t.Fatalf("re-instrument wrapped %d", again)
	}
}

func TestMutationsPassThrough(t *testing.T) {
	w, tr, c := build(t)
	rootCtx, _ := w.ContextOf(tr.Root)
	e := w.NewObject("new")
	rootCtx.Bind("new", e)
	if got := rootCtx.Lookup("new"); got != e {
		t.Fatal("bind through wrapper failed")
	}
	rootCtx.Unbind("new")
	if got := rootCtx.Lookup("new"); !got.IsUndefined() {
		t.Fatal("unbind through wrapper failed")
	}
	if len(rootCtx.Names()) != 1 {
		t.Fatal("Names delegation broken")
	}
	_ = c
}
