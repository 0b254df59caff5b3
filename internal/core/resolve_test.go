package core

import (
	"errors"
	"strings"
	"testing"
)

// buildTree constructs the canonical test naming graph:
//
//	root ── "usr" ──> usr ── "bin" ──> bin ── "ls" ──> ls (plain object)
//	root ── "etc" ──> etc
//	root ── "self" ─> act (an activity)
func buildTree(t *testing.T) (w *World, rootCtx *BasicContext, entities map[string]Entity) {
	t.Helper()
	w = NewWorld()
	root, rootCtx := w.NewContextObject("root")
	usr, usrCtx := w.NewContextObject("usr")
	bin, binCtx := w.NewContextObject("bin")
	etc, _ := w.NewContextObject("etc")
	ls := w.NewObject("ls")
	act := w.NewActivity("act")

	rootCtx.Bind("usr", usr)
	rootCtx.Bind("etc", etc)
	rootCtx.Bind("self", act)
	usrCtx.Bind("bin", bin)
	binCtx.Bind("ls", ls)

	entities = map[string]Entity{
		"root": root, "usr": usr, "bin": bin, "etc": etc, "ls": ls, "act": act,
	}
	return w, rootCtx, entities
}

func TestResolveSimpleName(t *testing.T) {
	w, rootCtx, ents := buildTree(t)
	got, err := w.Resolve(rootCtx, PathOf("usr"))
	if err != nil {
		t.Fatal(err)
	}
	if got != ents["usr"] {
		t.Fatalf("Resolve(usr) = %v, want %v", got, ents["usr"])
	}
}

func TestResolveCompoundName(t *testing.T) {
	w, rootCtx, ents := buildTree(t)
	tests := []struct {
		give string
		want Entity
	}{
		{give: "usr/bin", want: ents["bin"]},
		{give: "usr/bin/ls", want: ents["ls"]},
		{give: "etc", want: ents["etc"]},
		{give: "self", want: ents["act"]},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got, err := w.Resolve(rootCtx, ParsePath(tt.give))
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("Resolve(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

// ResolveIn reports the directory the last component was looked up in as
// its watch knows it: the same entity by whichever alias the walk reached
// it — or by whichever entity shares its state — and nothing for a
// directory no hook covers (unwatched, or not a BasicContext) or on failure.
func TestResolveInReportsFinalDirectory(t *testing.T) {
	w, rootCtx, ents := buildTree(t)
	rootCtx.Bind("alias", ents["bin"]) // bin is now /usr/bin and /alias
	twin := w.NewObject("twin")        // a second entity with bin's context as its state
	if err := w.SetState(twin, mustContext(t, w, ents["bin"])); err != nil {
		t.Fatal(err)
	}
	layered := w.NewObject("layered")
	if err := w.SetState(layered, Union(NewContext(), mustContext(t, w, ents["bin"]))); err != nil {
		t.Fatal(err)
	}
	rootCtx.Bind("layered", layered)
	unwatched, unwatchedCtx := w.NewContextObject("unwatched")
	unwatchedCtx.Bind("ls", ents["ls"])

	var changed []Change
	if watched, opaque := w.WatchReachable(ents["root"], func(ch Change) { changed = append(changed, ch) }); watched != 4 || opaque != 1 {
		t.Fatalf("watched, opaque = %d, %d; want root, usr, bin, etc and the union", watched, opaque)
	}
	// Attached after the watch: bin stays watched as bin, and nobody
	// watches the new directory.
	rootCtx.Bind("twin", twin)
	rootCtx.Bind("unwatched", unwatched)
	for _, tt := range []struct {
		give      string
		want, dir Entity
	}{
		{give: "usr/bin/ls", want: ents["ls"], dir: ents["bin"]},
		{give: "alias/ls", want: ents["ls"], dir: ents["bin"]},
		{give: "twin/ls", want: ents["ls"], dir: ents["bin"]}, // what the hook will call it
		{give: "usr/bin", want: ents["bin"], dir: ents["usr"]},
		{give: "usr", want: ents["usr"], dir: ents["root"]},
		{give: "layered/ls", want: ents["ls"]},   // looked up in a union
		{give: "unwatched/ls", want: ents["ls"]}, // looked up where no hook listens
	} {
		e, dir, err := w.ResolveIn(rootCtx, ParsePath(tt.give))
		if err != nil || e != tt.want || dir != tt.dir {
			t.Errorf("ResolveIn(%q) = %v in %v, %v; want %v in %v", tt.give, e, dir, err, tt.want, tt.dir)
		}
	}
	if e, dir, err := w.ResolveIn(rootCtx, ParsePath("usr/bin/nope")); err == nil || !e.IsUndefined() || !dir.IsUndefined() {
		t.Errorf("failed ResolveIn = %v in %v, %v", e, dir, err)
	}
	// The directory a resolve reports is the one its changes are reported
	// under, by construction: rebind through the twin.
	mustContext(t, w, twin).Unbind("ls")
	if last := changed[len(changed)-1]; last.Dir != ents["bin"] || last.Name != "ls" || last.Old != ents["ls"] {
		t.Fatalf("unbind through the twin reported %+v, want dir %v", last, ents["bin"])
	}
}

func mustContext(t *testing.T, w *World, e Entity) Context {
	t.Helper()
	c, ok := w.ContextOf(e)
	if !ok {
		t.Fatalf("%v is not a context object", e)
	}
	return c
}

func TestResolveNotFound(t *testing.T) {
	w, rootCtx, _ := buildTree(t)
	got, err := w.Resolve(rootCtx, ParsePath("usr/missing/x"))
	if !got.IsUndefined() {
		t.Fatalf("result = %v, want undefined", got)
	}
	var nf *NotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("err = %v, want NotFoundError", err)
	}
	if nf.Depth != 1 || nf.Path[nf.Depth] != "missing" {
		t.Fatalf("NotFoundError = %+v", nf)
	}
}

func TestResolveThroughNonContext(t *testing.T) {
	w, rootCtx, ents := buildTree(t)
	// "ls" is a plain object; resolving past it must fail with
	// NotContextError (the paper's σ(c(n1)) ∉ C case).
	got, err := w.Resolve(rootCtx, ParsePath("usr/bin/ls/deeper"))
	if !got.IsUndefined() {
		t.Fatalf("result = %v, want undefined", got)
	}
	var nc *NotContextError
	if !errors.As(err, &nc) {
		t.Fatalf("err = %v, want NotContextError", err)
	}
	if nc.Entity != ents["ls"] || nc.Depth != 2 {
		t.Fatalf("NotContextError = %+v", nc)
	}
	if msg := err.Error(); !strings.Contains(msg, "component 2") || !strings.Contains(msg, "not a context object") {
		t.Fatalf("message %q does not say which component is not a context", msg)
	}
}

func TestResolveThroughActivityFails(t *testing.T) {
	w, rootCtx, _ := buildTree(t)
	// Activities have no context state here, so resolution cannot continue
	// through them.
	_, err := w.Resolve(rootCtx, ParsePath("self/x"))
	var nc *NotContextError
	if !errors.As(err, &nc) {
		t.Fatalf("err = %v, want NotContextError", err)
	}
}

func TestResolveEmptyPath(t *testing.T) {
	w, rootCtx, _ := buildTree(t)
	_, err := w.Resolve(rootCtx, nil)
	if !errors.Is(err, ErrEmptyPath) {
		t.Fatalf("err = %v, want ErrEmptyPath", err)
	}
}

func TestResolveTrail(t *testing.T) {
	w, rootCtx, ents := buildTree(t)
	got, trail, err := w.ResolveTrail(rootCtx, ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if got != ents["ls"] {
		t.Fatalf("result = %v", got)
	}
	want := []Entity{ents["usr"], ents["bin"], ents["ls"]}
	if len(trail) != len(want) {
		t.Fatalf("trail = %v, want %v", trail, want)
	}
	for i := range want {
		if trail[i] != want[i] {
			t.Fatalf("trail[%d] = %v, want %v", i, trail[i], want[i])
		}
	}
}

func TestResolveTrailPartialOnFailure(t *testing.T) {
	w, rootCtx, ents := buildTree(t)
	_, trail, err := w.ResolveTrail(rootCtx, ParsePath("usr/missing"))
	if err == nil {
		t.Fatal("expected error")
	}
	if len(trail) != 1 || trail[0] != ents["usr"] {
		t.Fatalf("trail = %v, want [usr]", trail)
	}
}

func TestResolveCycleTerminates(t *testing.T) {
	w := NewWorld()
	a, aCtx := w.NewContextObject("a")
	b, bCtx := w.NewContextObject("b")
	aCtx.Bind("next", b)
	bCtx.Bind("next", a)
	// A cyclic naming graph is legal; resolution length is bounded by the
	// path length, so this must terminate.
	got, err := w.Resolve(aCtx, ParsePath("next/next/next"))
	if err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Fatalf("got %v, want %v", got, b)
	}
}

func TestMustResolve(t *testing.T) {
	w, rootCtx, ents := buildTree(t)
	if got := w.MustResolve(rootCtx, ParsePath("usr/bin")); got != ents["bin"] {
		t.Fatalf("MustResolve = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustResolve on missing name did not panic")
		}
	}()
	w.MustResolve(rootCtx, ParsePath("nope"))
}

// Property: resolution is deterministic — resolving the same path twice in an
// unchanged world yields identical results.
func TestResolveDeterministic(t *testing.T) {
	w, rootCtx, _ := buildTree(t)
	paths := []string{"usr", "usr/bin", "usr/bin/ls", "etc", "missing", "usr/x"}
	for _, s := range paths {
		p := ParsePath(s)
		e1, err1 := w.Resolve(rootCtx, p)
		e2, err2 := w.Resolve(rootCtx, p)
		if e1 != e2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic resolution of %q", s)
		}
	}
}

// Property: prefix consistency — if p resolves, every proper prefix of p
// resolves, and resolving the prefix then the suffix gives the same entity.
func TestResolvePrefixConsistency(t *testing.T) {
	w, rootCtx, _ := buildTree(t)
	p := ParsePath("usr/bin/ls")
	full, _, err := w.ResolveTrail(rootCtx, p)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(p); cut++ {
		mid, err := w.Resolve(rootCtx, p[:cut])
		if err != nil {
			t.Fatalf("prefix %v failed: %v", p[:cut], err)
		}
		midCtx, ok := w.ContextOf(mid)
		if !ok {
			t.Fatalf("prefix %v not a context", p[:cut])
		}
		rest, err := w.Resolve(midCtx, p[cut:])
		if err != nil {
			t.Fatalf("suffix %v failed: %v", p[cut:], err)
		}
		if rest != full {
			t.Fatalf("split at %d: %v != %v", cut, rest, full)
		}
	}
}
