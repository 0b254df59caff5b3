package rules

import (
	"errors"
	"testing"

	"namecoherence/internal/core"
)

// twoActivityWorld builds two activities with private contexts that disagree
// on the name "x" and agree on the name "g" (a "global" name).
func twoActivityWorld(t *testing.T) (w *core.World, a1, a2 core.Entity, assoc *Assoc, shared, x1, x2 core.Entity) {
	t.Helper()
	w = core.NewWorld()
	a1 = w.NewActivity("a1")
	a2 = w.NewActivity("a2")
	shared = w.NewObject("shared")
	x1 = w.NewObject("x@a1")
	x2 = w.NewObject("x@a2")

	c1, c2 := core.NewContext(), core.NewContext()
	c1.Bind("g", shared)
	c2.Bind("g", shared)
	c1.Bind("x", x1)
	c2.Bind("x", x2)

	assoc = NewAssoc()
	assoc.Set(a1, c1)
	assoc.Set(a2, c2)
	return w, a1, a2, assoc, shared, x1, x2
}

func TestSourceString(t *testing.T) {
	tests := []struct {
		give Source
		want string
	}{
		{SourceInternal, "internal"},
		{SourceMessage, "message"},
		{SourceObject, "object"},
		{Source(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Source(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestAssoc(t *testing.T) {
	w := core.NewWorld()
	a := w.NewActivity("a")
	c := core.NewContext()
	assoc := NewAssoc()

	if _, ok := assoc.Get(a); ok {
		t.Fatal("empty assoc returned a context")
	}
	assoc.Set(a, c)
	got, ok := assoc.Get(a)
	if !ok || got != core.Context(c) {
		t.Fatal("Get after Set failed")
	}
	if _, ok := assoc.Get(w.NewActivity("b")); ok {
		t.Fatal("Get served an activity that has no entry")
	}
}

func TestActivityRule(t *testing.T) {
	w, a1, a2, assoc, shared, x1, x2 := twoActivityWorld(t)
	r := NewResolver(w, &ActivityRule{Contexts: assoc})

	// Under R(activity), the global name agrees, the local name does not —
	// regardless of the source of the name.
	for _, m := range []Circumstance{Internal(a1), Received(a1, a2), FromObject(a1, shared, nil)} {
		got, err := r.Resolve(m, core.PathOf("x"))
		if err != nil {
			t.Fatal(err)
		}
		if got != x1 {
			t.Fatalf("origin %v: got %v, want %v", m.Origin, got, x1)
		}
	}
	got, err := r.Resolve(Internal(a2), core.PathOf("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got != x2 {
		t.Fatalf("a2 resolved x to %v, want %v", got, x2)
	}
	for _, a := range []core.Entity{a1, a2} {
		got, err := r.Resolve(Internal(a), core.PathOf("g"))
		if err != nil {
			t.Fatal(err)
		}
		if got != shared {
			t.Fatalf("global name resolved to %v", got)
		}
	}
}

func TestActivityRuleNoContext(t *testing.T) {
	w, _, _, assoc, _, _, _ := twoActivityWorld(t)
	stranger := w.NewActivity("stranger")
	r := NewResolver(w, &ActivityRule{Contexts: assoc})
	_, err := r.Resolve(Internal(stranger), core.PathOf("x"))
	var nce *NoContextError
	if !errors.As(err, &nce) {
		t.Fatalf("err = %v, want NoContextError", err)
	}
	if nce.Entity != stranger {
		t.Fatalf("NoContextError.Entity = %v", nce.Entity)
	}
}

func TestSenderRule(t *testing.T) {
	w, a1, a2, assoc, _, x1, x2 := twoActivityWorld(t)
	r := NewResolver(w, &SenderRule{Contexts: assoc})

	// a2 received "x" from a1: resolved in a1's context — coherent with the
	// sender's meaning.
	got, err := r.Resolve(Received(a2, a1), core.PathOf("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got != x1 {
		t.Fatalf("R(sender) got %v, want sender's %v", got, x1)
	}

	// Internally generated names still use the activity's own context.
	got, err = r.Resolve(Internal(a2), core.PathOf("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got != x2 {
		t.Fatalf("internal name got %v, want own %v", got, x2)
	}

	// A message circumstance without a sender degrades to the receiver.
	got, err = r.Resolve(Circumstance{Activity: a2, Origin: SourceMessage}, core.PathOf("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got != x2 {
		t.Fatalf("senderless message got %v, want own %v", got, x2)
	}
}

func TestObjectRule(t *testing.T) {
	w, a1, a2, actAssoc, _, x1, _ := twoActivityWorld(t)
	// The object "doc" carries embedded names; its associated context binds
	// "x" to a dedicated entity that no activity context binds.
	doc := w.NewObject("doc")
	xDoc := w.NewObject("x@doc")
	docCtx := core.NewContext()
	docCtx.Bind("x", xDoc)
	objAssoc := NewAssoc()
	objAssoc.Set(doc, docCtx)

	r := NewResolver(w, &ObjectRule{ObjectContexts: objAssoc, ActivityContexts: actAssoc})

	// Both activities obtain "x" from doc: coherent, and equal to the
	// object context's meaning.
	for _, a := range []core.Entity{a1, a2} {
		got, err := r.Resolve(FromObject(a, doc, nil), core.PathOf("x"))
		if err != nil {
			t.Fatal(err)
		}
		if got != xDoc {
			t.Fatalf("R(object) for %v got %v, want %v", a, got, xDoc)
		}
	}

	// Internal names fall back to the activity context.
	got, err := r.Resolve(Internal(a1), core.PathOf("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got != x1 {
		t.Fatalf("internal got %v, want %v", got, x1)
	}

	// An object with no associated context is an error.
	orphan := w.NewObject("orphan")
	_, err = r.Resolve(FromObject(a1, orphan, nil), core.PathOf("x"))
	var nce *NoContextError
	if !errors.As(err, &nce) {
		t.Fatalf("err = %v, want NoContextError", err)
	}
}

func TestFixedRule(t *testing.T) {
	w, a1, a2, _, _, _, _ := twoActivityWorld(t)
	g := w.NewObject("g")
	global := core.NewContext()
	global.Bind("x", g)
	r := NewResolver(w, &FixedRule{Context: global})

	for _, a := range []core.Entity{a1, a2} {
		got, err := r.Resolve(Internal(a), core.PathOf("x"))
		if err != nil {
			t.Fatal(err)
		}
		if got != g {
			t.Fatalf("global rule got %v, want %v", got, g)
		}
	}

	var empty FixedRule
	if _, err := empty.Select(Internal(a1)); err == nil {
		t.Fatal("nil-context FixedRule did not error")
	}
	if empty.String() != "R(global)" {
		t.Fatalf("String = %q", empty.String())
	}
}

func TestRuleStrings(t *testing.T) {
	tests := []struct {
		give Rule
		want string
	}{
		{&ActivityRule{}, "R(activity)"},
		{&SenderRule{}, "R(sender)"},
		{&ObjectRule{}, "R(object)"},
		{&FixedRule{Label: "R(root)"}, "R(root)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestResolverTrail(t *testing.T) {
	w := core.NewWorld()
	a := w.NewActivity("a")
	root, rootCtx := w.NewContextObject("root")
	sub, subCtx := w.NewContextObject("sub")
	leaf := w.NewObject("leaf")
	rootCtx.Bind("sub", sub)
	subCtx.Bind("leaf", leaf)
	_ = root

	assoc := NewAssoc()
	actCtx := core.NewContext()
	actCtx.Bind("sub", sub)
	assoc.Set(a, actCtx)

	r := NewResolver(w, &ActivityRule{Contexts: assoc})
	got, trail, err := r.ResolveTrail(Internal(a), core.ParsePath("sub/leaf"))
	if err != nil {
		t.Fatal(err)
	}
	if got != leaf || len(trail) != 2 || trail[0] != sub || trail[1] != leaf {
		t.Fatalf("got %v trail %v", got, trail)
	}
}
