package embedded

import (
	"errors"
	"strings"
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

// figure6 builds the subtree of Figure 6: a project subtree containing a
// binding for "a" at an interior node n′ and, deeper, a file n that embeds
// the name a/p denoting node n″.
//
//	proj/               (n′: binds "a")
//	  a/
//	    p               (n″)
//	  src/
//	    n               (embeds "a/p")
func figure6(t *testing.T) (w *core.World, tr *dirtree.Tree, nDoublePrime core.Entity) {
	t.Helper()
	w = core.NewWorld()
	tr = dirtree.New(w, "root")
	var err error
	nDoublePrime, err = tr.Create(core.ParsePath("proj/a/p"), "n-double-prime")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("proj/src/n"), "body of n", core.ParsePath("a/p")); err != nil {
		t.Fatal(err)
	}
	return w, tr, nDoublePrime
}

// chainFor returns the scope chain for the file at path in tree tr.
func chainFor(t *testing.T, tr *dirtree.Tree, path string) []core.Entity {
	t.Helper()
	_, trail, err := tr.LookupTrail(core.ParsePath(path))
	if err != nil {
		t.Fatalf("lookup %q: %v", path, err)
	}
	return Chain(tr.Root, trail)
}

func TestResolveEmbeddedBasic(t *testing.T) {
	w, tr, want := figure6(t)
	chain := chainFor(t, tr, "proj/src/n")
	got, newChain, err := Resolve(w, chain, core.ParsePath("a/p"))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("embedded a/p = %v, want %v", got, want)
	}
	// The returned chain ends at the resolved entity and passes through the
	// scope directory.
	if newChain[len(newChain)-1] != want {
		t.Fatalf("chain end = %v", newChain[len(newChain)-1])
	}
}

func TestResolveClosestAncestorWins(t *testing.T) {
	w, tr, inner := figure6(t)
	// Add a binding for "a" at the root too: the root's a/p is a different
	// entity. The closest ancestor (proj) must win for the file inside.
	outer, err := tr.Create(core.ParsePath("a/p"), "outer-a-p")
	if err != nil {
		t.Fatal(err)
	}
	chain := chainFor(t, tr, "proj/src/n")
	got, _, err := Resolve(w, chain, core.ParsePath("a/p"))
	if err != nil {
		t.Fatal(err)
	}
	if got != inner {
		t.Fatalf("got %v, want inner %v (not outer %v)", got, inner, outer)
	}
}

func TestResolveFallsBackToOuterScope(t *testing.T) {
	w, tr, _ := figure6(t)
	lib, err := tr.Create(core.ParsePath("lib/util"), "library")
	if err != nil {
		t.Fatal(err)
	}
	// "lib/util" is not bound inside proj; the search climbs to the root.
	chain := chainFor(t, tr, "proj/src/n")
	got, _, err := Resolve(w, chain, core.ParsePath("lib/util"))
	if err != nil {
		t.Fatal(err)
	}
	if got != lib {
		t.Fatalf("got %v, want %v", got, lib)
	}
}

func TestResolveNoScopeBinds(t *testing.T) {
	w, tr, _ := figure6(t)
	chain := chainFor(t, tr, "proj/src/n")
	_, _, err := Resolve(w, chain, core.ParsePath("nosuch/name"))
	var se *ScopeError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ScopeError", err)
	}
}

func TestResolveMatchedScopeDeepFailure(t *testing.T) {
	w, tr, _ := figure6(t)
	chain := chainFor(t, tr, "proj/src/n")
	// "a" matches at proj, but a/missing does not resolve: real failure,
	// not a fall-through to outer scopes.
	if _, err := tr.Create(core.ParsePath("a/missing"), "outer has it"); err != nil {
		t.Fatal(err)
	}
	_, _, err := Resolve(w, chain, core.ParsePath("a/missing"))
	if err == nil {
		t.Fatal("expected failure; closest matching scope must not fall through")
	}
	var nf *core.NotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("err = %v, want NotFoundError", err)
	}
}

func TestResolveInvalidInputs(t *testing.T) {
	w, tr, _ := figure6(t)
	if _, _, err := Resolve(w, nil, core.ParsePath("a/p")); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("err = %v", err)
	}
	chain := chainFor(t, tr, "proj/src/n")
	if _, _, err := Resolve(w, chain, nil); err == nil {
		t.Fatal("invalid name accepted")
	}
}

// The headline property of Figure 6: the embedded name keeps its meaning
// when the subtree is relocated.
func TestMeaningInvariantUnderRelocation(t *testing.T) {
	w, tr, want := figure6(t)
	if _, err := tr.MkdirAll(core.PathOf("elsewhere")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(core.ParsePath("proj"), core.ParsePath("elsewhere/proj")); err != nil {
		t.Fatal(err)
	}
	chain := chainFor(t, tr, "elsewhere/proj/src/n")
	got, _, err := Resolve(w, chain, core.ParsePath("a/p"))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after relocation: %v, want %v", got, want)
	}
}

// The subtree can be attached simultaneously in two places; the embedded
// name denotes the same entity through both access paths.
func TestMeaningInvariantUnderSimultaneousAttach(t *testing.T) {
	w, tr, want := figure6(t)
	proj, err := tr.Lookup(core.PathOf("proj"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MkdirAll(core.PathOf("mirror")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(core.PathOf("mirror"), "proj2", proj); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"proj/src/n", "mirror/proj2/src/n"} {
		chain := chainFor(t, tr, path)
		got, _, err := Resolve(w, chain, core.ParsePath("a/p"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got != want {
			t.Fatalf("%s: got %v, want %v", path, got, want)
		}
	}
}

// A copied subtree resolves its embedded names within the copy: the copy is
// self-contained, denoting the copy's own a/p.
func TestCopyResolvesWithinCopy(t *testing.T) {
	w, tr, orig := figure6(t)
	if _, err := tr.MkdirAll(core.PathOf("backup")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CopySubtree(core.PathOf("proj"), core.ParsePath("backup/proj")); err != nil {
		t.Fatal(err)
	}
	chain := chainFor(t, tr, "backup/proj/src/n")
	got, _, err := Resolve(w, chain, core.ParsePath("a/p"))
	if err != nil {
		t.Fatal(err)
	}
	if got == orig {
		t.Fatal("copy's embedded name denotes the original, not the copy")
	}
	wantCopy, err := tr.Lookup(core.ParsePath("backup/proj/a/p"))
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCopy {
		t.Fatalf("got %v, want copy's %v", got, wantCopy)
	}
}

func TestAssembler(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	if _, err := tr.Create(core.ParsePath("doc/chapters/ch1"), "chapter one"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("doc/chapters/ch2"), "chapter two"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("doc/main"), "title",
		core.ParsePath("chapters/ch1"), core.ParsePath("chapters/ch2")); err != nil {
		t.Fatal(err)
	}

	a := &Assembler{World: w}
	chain := chainFor(t, tr, "doc/main")
	got, err := a.Assemble(chain)
	if err != nil {
		t.Fatal(err)
	}
	if got != "title\nchapter one\nchapter two" {
		t.Fatalf("Assemble = %q", got)
	}
}

func TestAssemblerNested(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	if _, err := tr.Create(core.ParsePath("d/leaf"), "leaf"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("d/mid"), "mid", core.ParsePath("leaf")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("d/top"), "top", core.ParsePath("mid")); err != nil {
		t.Fatal(err)
	}
	a := &Assembler{World: w, Sep: "|"}
	got, err := a.Assemble(chainFor(t, tr, "d/top"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "top|mid|leaf" {
		t.Fatalf("Assemble = %q", got)
	}
}

func TestAssemblerCycle(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	if _, err := tr.Create(core.ParsePath("d/a"), "a", core.ParsePath("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("d/b"), "b", core.ParsePath("a")); err != nil {
		t.Fatal(err)
	}
	a := &Assembler{World: w}
	if _, err := a.Assemble(chainFor(t, tr, "d/a")); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestAssemblerDiamondIsNotACycle(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	if _, err := tr.Create(core.ParsePath("d/shared"), "S"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("d/l"), "L", core.ParsePath("shared")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("d/r"), "R", core.ParsePath("shared")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create(core.ParsePath("d/top"), "T",
		core.ParsePath("l"), core.ParsePath("r")); err != nil {
		t.Fatal(err)
	}
	a := &Assembler{World: w, Sep: "|"}
	got, err := a.Assemble(chainFor(t, tr, "d/top"))
	if err != nil {
		t.Fatal(err)
	}
	// The shared leaf is included twice (diamond), which is legal.
	if got != "T|L|S|R|S" {
		t.Fatalf("Assemble = %q", got)
	}
}

func TestAssemblerDepthLimit(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	if _, err := tr.Create(core.ParsePath("d/f0"), "x"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		prev := core.ParsePath("f" + string(rune('0'+i-1)))
		if _, err := tr.Create(core.ParsePath("d/f"+string(rune('0'+i))), "x", prev); err != nil {
			t.Fatal(err)
		}
	}
	a := &Assembler{World: w, MaxDepth: 3}
	if _, err := a.Assemble(chainFor(t, tr, "d/f5")); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("err = %v, want ErrTooDeep", err)
	}
}

func TestAssemblerErrors(t *testing.T) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	a := &Assembler{World: w}
	if _, err := a.Assemble(nil); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("err = %v", err)
	}
	// Assembling a directory fails.
	d, err := tr.MkdirAll(core.PathOf("d"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Assemble([]core.Entity{tr.Root, d}); err == nil {
		t.Fatal("assembling a directory succeeded")
	}
	// A missing include fails with context.
	if _, err := tr.Create(core.ParsePath("d/bad"), "b", core.ParsePath("ghost")); err != nil {
		t.Fatal(err)
	}
	_, err = a.Assemble(chainFor(t, tr, "d/bad"))
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v", err)
	}
}
