package dirtree

import (
	"errors"
	"testing"

	"namecoherence/internal/core"
)

func newTree(t *testing.T) (*core.World, *Tree) {
	t.Helper()
	w := core.NewWorld()
	return w, New(w, "root")
}

func TestMkdirAll(t *testing.T) {
	_, tr := newTree(t)
	d1, err := tr.MkdirAll(core.ParsePath("a/b/c"))
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent: re-creating returns the same directory.
	d2, err := tr.MkdirAll(core.ParsePath("a/b/c"))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("MkdirAll not idempotent")
	}
	if got, err := tr.Lookup(core.ParsePath("a/b")); err != nil || got.IsUndefined() {
		t.Fatalf("intermediate missing: %v %v", got, err)
	}
}

func TestMkdirAllThroughFileFails(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.Create(core.ParsePath("a/f"), "data"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MkdirAll(core.ParsePath("a/f/sub")); err == nil {
		t.Fatal("expected error creating directory through a file")
	}
}

func TestCreateAndFileAt(t *testing.T) {
	_, tr := newTree(t)
	inc := core.ParsePath("lib/common.tex")
	f, err := tr.Create(core.ParsePath("doc/main.tex"), "\\input{...}", inc)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.FileAt(core.ParsePath("doc/main.tex"))
	if err != nil {
		t.Fatal(err)
	}
	if data.Content != "\\input{...}" {
		t.Fatalf("Content = %q", data.Content)
	}
	if len(data.Embedded) != 1 || !data.Embedded[0].Equal(inc) {
		t.Fatalf("Embedded = %v", data.Embedded)
	}
	if _, err := tr.File(f); err != nil {
		t.Fatal(err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.Create(core.ParsePath("f"), "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("f"), "2"); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestCreateInvalidPath(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.Create(nil, "x"); err == nil {
		t.Fatal("expected error for empty path")
	}
}

func TestFileAtOnDirectoryFails(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.MkdirAll(core.PathOf("d")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.FileAt(core.PathOf("d")); err == nil {
		t.Fatal("expected error reading a directory as a file")
	}
}

func TestAttachDetach(t *testing.T) {
	w, tr := newTree(t)
	other := New(w, "other-root")
	if _, err := other.Create(core.ParsePath("x/y"), "data"); err != nil {
		t.Fatal(err)
	}

	if err := tr.Attach(nil, "mnt", other.Root); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Lookup(core.ParsePath("mnt/x/y"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := other.Lookup(core.ParsePath("x/y"))
	if got != want {
		t.Fatalf("through-mount lookup = %v, want %v", got, want)
	}

	if err := tr.Attach(nil, "mnt", other.Root); !errors.Is(err, ErrExists) {
		t.Fatalf("double attach err = %v", err)
	}
	if err := tr.Detach(nil, "mnt"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Lookup(core.ParsePath("mnt/x/y")); err == nil {
		t.Fatal("lookup succeeded after detach")
	}
	if err := tr.Detach(nil, "mnt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double detach err = %v", err)
	}
}

func TestSimultaneousAttach(t *testing.T) {
	w, tr := newTree(t)
	sub := New(w, "sub")
	f, err := sub.Create(core.ParsePath("inner/f"), "payload")
	if err != nil {
		t.Fatal(err)
	}
	// The same subtree attached at two different points (§6): both paths
	// reach the same entity.
	if _, err := tr.MkdirAll(core.ParsePath("p1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MkdirAll(core.ParsePath("p2")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(core.PathOf("p1"), "s", sub.Root); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(core.PathOf("p2"), "s", sub.Root); err != nil {
		t.Fatal(err)
	}
	e1, err1 := tr.Lookup(core.ParsePath("p1/s/inner/f"))
	e2, err2 := tr.Lookup(core.ParsePath("p2/s/inner/f"))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if e1 != f || e2 != f {
		t.Fatalf("attachments disagree: %v %v want %v", e1, e2, f)
	}
}

func TestMove(t *testing.T) {
	_, tr := newTree(t)
	f, err := tr.Create(core.ParsePath("a/f"), "data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MkdirAll(core.PathOf("b")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(core.ParsePath("a/f"), core.ParsePath("b/g")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Lookup(core.ParsePath("a/f")); err == nil {
		t.Fatal("source still resolves after move")
	}
	got, err := tr.Lookup(core.ParsePath("b/g"))
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatalf("moved entity changed identity: %v want %v", got, f)
	}
}

func TestMoveToExistingFails(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.Create(core.ParsePath("a"), "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("b"), "2"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(core.PathOf("a"), core.PathOf("b")); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestMoveSubtreePreservesInterior(t *testing.T) {
	_, tr := newTree(t)
	f, err := tr.Create(core.ParsePath("src/d/f"), "data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MkdirAll(core.PathOf("dst")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(core.ParsePath("src/d"), core.ParsePath("dst/d")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Lookup(core.ParsePath("dst/d/f"))
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatal("interior entity changed identity under relocation")
	}
}

func TestCopySubtree(t *testing.T) {
	_, tr := newTree(t)
	orig, err := tr.Create(core.ParsePath("src/d/f"), "payload", core.ParsePath("a/b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MkdirAll(core.PathOf("dst")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CopySubtree(core.ParsePath("src/d"), core.ParsePath("dst/d")); err != nil {
		t.Fatal(err)
	}

	copyEnt, err := tr.Lookup(core.ParsePath("dst/d/f"))
	if err != nil {
		t.Fatal(err)
	}
	if copyEnt == orig {
		t.Fatal("copy shares identity with original")
	}
	origData, _ := tr.FileAt(core.ParsePath("src/d/f"))
	copyData, _ := tr.FileAt(core.ParsePath("dst/d/f"))
	if copyData.Content != origData.Content {
		t.Fatal("content not copied")
	}
	if len(copyData.Embedded) != 1 || !copyData.Embedded[0].Equal(origData.Embedded[0]) {
		t.Fatal("embedded names not copied")
	}
	// Deep copy: mutating the copy's data must not affect the original.
	copyData.Content = "changed"
	origData2, _ := tr.FileAt(core.ParsePath("src/d/f"))
	if origData2.Content != "payload" {
		t.Fatal("copy aliases original data")
	}
}

func TestCopySubtreeToExistingFails(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.Create(core.ParsePath("src/f"), "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("dst"), "2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CopySubtree(core.PathOf("src"), core.PathOf("dst")); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestCopySubtreeSharesForeignTargets(t *testing.T) {
	w, tr := newTree(t)
	shared := New(w, "shared")
	sf, err := shared.Create(core.ParsePath("lib"), "shared-lib")
	if err != nil {
		t.Fatal(err)
	}
	_ = sf
	if _, err := tr.MkdirAll(core.ParsePath("src/d")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(core.ParsePath("src/d"), "vice", shared.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MkdirAll(core.PathOf("dst")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CopySubtree(core.ParsePath("src/d"), core.ParsePath("dst/d")); err != nil {
		t.Fatal(err)
	}
	origMnt, _ := tr.Lookup(core.ParsePath("src/d/vice"))
	copyMnt, err := tr.Lookup(core.ParsePath("dst/d/vice"))
	if err != nil {
		t.Fatal(err)
	}
	// A mounted foreign tree is a directory (context object), so the copy
	// clones it structurally; the files below keep their payloads.
	if copyMnt.IsUndefined() {
		t.Fatal("mount not copied")
	}
	_ = origMnt
	got, err := tr.FileAt(core.ParsePath("dst/d/vice/lib"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Content != "shared-lib" {
		t.Fatalf("copied mount content = %q", got.Content)
	}
}

func TestParentLinks(t *testing.T) {
	w := core.NewWorld()
	tr := NewWithParentLinks(w, "root")
	d, err := tr.MkdirAll(core.ParsePath("a/b"))
	if err != nil {
		t.Fatal(err)
	}
	// b/.. resolves to a; a/.. resolves to root; root/.. resolves to root.
	a, err := tr.Lookup(core.PathOf("a"))
	if err != nil {
		t.Fatal(err)
	}
	dCtx, _ := w.ContextOf(d)
	if got := dCtx.Lookup(ParentName); got != a {
		t.Fatalf("b/.. = %v, want %v", got, a)
	}
	got, err := tr.Lookup(core.ParsePath("a/b/../../.."))
	if err != nil {
		t.Fatal(err)
	}
	if got != tr.Root {
		t.Fatalf("root/.. chain = %v, want root", got)
	}
}

func TestMoveRewritesParentLink(t *testing.T) {
	w := core.NewWorld()
	tr := NewWithParentLinks(w, "root")
	if _, err := tr.MkdirAll(core.ParsePath("a/sub")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MkdirAll(core.PathOf("b")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(core.ParsePath("a/sub"), core.ParsePath("b/sub")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Lookup(core.ParsePath("b/sub/.."))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tr.Lookup(core.PathOf("b"))
	if got != b {
		t.Fatalf("moved dir's .. = %v, want %v", got, b)
	}
}

func TestWalk(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.Create(core.ParsePath("a/f1"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("a/b/f2"), ""); err != nil {
		t.Fatal(err)
	}
	visited := make(map[string]bool)
	tr.Walk(func(p core.Path, e core.Entity) bool {
		visited[p.String()] = true
		return true
	})
	for _, want := range []string{"a", "a/f1", "a/b", "a/b/f2"} {
		if !visited[want] {
			t.Errorf("Walk missed %q", want)
		}
	}
}

func TestWalkPrune(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.Create(core.ParsePath("a/b/f"), ""); err != nil {
		t.Fatal(err)
	}
	var visited []string
	tr.Walk(func(p core.Path, e core.Entity) bool {
		visited = append(visited, p.String())
		return p.String() != "a" // prune below a
	})
	for _, v := range visited {
		if v == "a/b" || v == "a/b/f" {
			t.Fatalf("pruned node %q visited", v)
		}
	}
}

func TestWalkCycleSafe(t *testing.T) {
	w, tr := newTree(t)
	d, err := tr.MkdirAll(core.PathOf("d"))
	if err != nil {
		t.Fatal(err)
	}
	dCtx, _ := w.ContextOf(d)
	dCtx.Bind("loop", tr.Root) // cycle back to root
	count := 0
	tr.Walk(func(core.Path, core.Entity) bool {
		count++
		return count < 1000
	})
	if count >= 1000 {
		t.Fatal("Walk did not terminate on a cyclic graph")
	}
}

func TestFileDataClone(t *testing.T) {
	f := &FileData{Content: "x", Embedded: []core.Path{core.ParsePath("a/b")}}
	g := f.Clone()
	g.Embedded[0][0] = "z"
	if f.Embedded[0][0] != "a" {
		t.Fatal("Clone aliases embedded paths")
	}
}

func TestLookupTrail(t *testing.T) {
	_, tr := newTree(t)
	f, err := tr.Create(core.ParsePath("a/b/f"), "x")
	if err != nil {
		t.Fatal(err)
	}
	got, trail, err := tr.LookupTrail(core.ParsePath("a/b/f"))
	if err != nil {
		t.Fatal(err)
	}
	if got != f || len(trail) != 3 || trail[2] != f {
		t.Fatalf("got %v trail %v", got, trail)
	}
	// Empty path denotes the root with an empty trail.
	root, trail, err := tr.LookupTrail(nil)
	if err != nil || root != tr.Root || len(trail) != 0 {
		t.Fatalf("root trail = %v %v %v", root, trail, err)
	}
}

func TestFileAtErrors(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.FileAt(core.ParsePath("missing")); err == nil {
		t.Fatal("FileAt on missing path succeeded")
	}
}

func TestCopySubtreeOfPlainFile(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.Create(core.ParsePath("f"), "payload"); err != nil {
		t.Fatal(err)
	}
	dup, err := tr.CopySubtree(core.PathOf("f"), core.PathOf("g"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.File(dup)
	if err != nil || data.Content != "payload" {
		t.Fatalf("copied file: %v %v", data, err)
	}
}

func TestCopySubtreeSharedInterior(t *testing.T) {
	w, tr := newTree(t)
	// src contains the same subdirectory attached twice: the copy must
	// preserve the sharing (both names point at ONE copied dir).
	shared, sharedCtx := w.NewContextObject("shared")
	leaf := w.NewObject("leaf")
	sharedCtx.Bind("leaf", leaf)
	if _, err := tr.MkdirAll(core.PathOf("src")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(core.PathOf("src"), "s1", shared); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(core.PathOf("src"), "s2", shared); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CopySubtree(core.PathOf("src"), core.PathOf("dup")); err != nil {
		t.Fatal(err)
	}
	c1, err := tr.Lookup(core.ParsePath("dup/s1"))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tr.Lookup(core.ParsePath("dup/s2"))
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("interior sharing lost in copy")
	}
	if c1 == shared {
		t.Fatal("copy aliases the original shared dir")
	}
}

func TestCopySubtreeWithActivityTarget(t *testing.T) {
	w, tr := newTree(t)
	act := w.NewActivity("daemon")
	if _, err := tr.MkdirAll(core.PathOf("src")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(core.PathOf("src"), "proc", act); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CopySubtree(core.PathOf("src"), core.PathOf("dup")); err != nil {
		t.Fatal(err)
	}
	// Opaque entities are shared, not copied.
	got, err := tr.Lookup(core.ParsePath("dup/proc"))
	if err != nil || got != act {
		t.Fatalf("activity target: %v %v", got, err)
	}
}

func TestCopySubtreeMissingSource(t *testing.T) {
	_, tr := newTree(t)
	if _, err := tr.CopySubtree(core.PathOf("nope"), core.PathOf("dst")); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := tr.CopySubtree(core.PathOf("nope"), nil); err == nil {
		t.Fatal("invalid destination accepted")
	}
}

func TestMoveInvalidPaths(t *testing.T) {
	_, tr := newTree(t)
	if err := tr.Move(nil, core.PathOf("x")); err == nil {
		t.Fatal("empty source accepted")
	}
	if err := tr.Move(core.PathOf("x"), nil); err == nil {
		t.Fatal("empty destination accepted")
	}
	if err := tr.Move(core.PathOf("missing"), core.PathOf("x")); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := tr.Create(core.ParsePath("f"), ""); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(core.PathOf("f"), core.ParsePath("no/dir/f")); err == nil {
		t.Fatal("missing destination dir accepted")
	}
}
