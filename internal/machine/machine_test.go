package machine

import (
	"errors"
	"testing"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
)

func newMachine(t *testing.T) (*core.World, *Machine) {
	t.Helper()
	w := core.NewWorld()
	m := New(w, "m1")
	if _, err := m.Tree.Create(core.ParsePath("etc/passwd"), "root:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tree.Create(core.ParsePath("home/alice/notes"), "hi"); err != nil {
		t.Fatal(err)
	}
	return w, m
}

func TestSpawnDefaults(t *testing.T) {
	_, m := newMachine(t)
	p := m.Spawn("sh")
	if p.Ctx.Lookup(RootName) != m.Tree.Root || p.Ctx.Lookup(CwdName) != m.Tree.Root {
		t.Fatal("spawned process not rooted at machine tree")
	}
	if !p.Activity.IsActivity() {
		t.Fatal("process entity is not an activity")
	}
	if p.PID != 1 {
		t.Fatalf("PID = %d, want 1", p.PID)
	}
	if m.Spawn("sh2").PID != 2 {
		t.Fatal("PIDs not sequential")
	}
}

func TestProcessResolveAbsolute(t *testing.T) {
	_, m := newMachine(t)
	p := m.Spawn("sh")
	got, err := p.Resolve("/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Tree.Lookup(core.ParsePath("etc/passwd"))
	if got != want {
		t.Fatalf("Resolve = %v, want %v", got, want)
	}
	root, err := p.Resolve("/")
	if err != nil {
		t.Fatal(err)
	}
	if root != m.Tree.Root {
		t.Fatal("\"/\" does not denote the root")
	}
}

func TestProcessResolveRelative(t *testing.T) {
	_, m := newMachine(t)
	p := m.Spawn("sh")
	home, err := p.Resolve("/home/alice")
	if err != nil {
		t.Fatal(err)
	}
	p.Ctx.Bind(CwdName, home)
	got, err := p.Resolve("notes")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Tree.Lookup(core.ParsePath("home/alice/notes"))
	if got != want {
		t.Fatalf("relative resolve = %v, want %v", got, want)
	}
	// "." alone denotes the cwd.
	dot, err := p.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if dot != home {
		t.Fatal("empty relative name does not denote cwd")
	}
}

func TestProcessResolveMissingBinding(t *testing.T) {
	_, m := newMachine(t)
	p := m.SpawnWith("bare", core.NewContext())
	if _, err := p.Resolve("/etc"); !errors.Is(err, ErrNoRoot) {
		t.Fatalf("err = %v, want ErrNoRoot", err)
	}
	if _, err := p.Resolve("etc"); !errors.Is(err, ErrNoRoot) {
		t.Fatalf("err = %v, want ErrNoRoot", err)
	}
}

func TestProcessResolveThroughFileFails(t *testing.T) {
	_, m := newMachine(t)
	p := m.Spawn("sh")
	if _, err := p.Resolve("/etc/passwd/deeper"); err == nil {
		t.Fatal("expected error resolving through a file")
	}
}

func TestForkInheritsContext(t *testing.T) {
	_, m := newMachine(t)
	parent := m.Spawn("parent")
	home, _ := parent.Resolve("/home/alice")
	parent.Ctx.Bind(CwdName, home)

	child := parent.Fork("child")
	if child.Parent != parent {
		t.Fatal("child parent not recorded")
	}
	// Coherence for all names until one modifies its context.
	pGot, _ := parent.Resolve("notes")
	cGot, _ := child.Resolve("notes")
	if pGot != cGot {
		t.Fatal("parent and child disagree right after fork")
	}

	// Child modifies its context; parent unaffected.
	child.Ctx.Bind(CwdName, m.Tree.Root)
	cGot2, err := child.Resolve("notes")
	if err == nil && cGot2 == pGot {
		t.Fatal("child cwd change did not take effect")
	}
	pGot2, _ := parent.Resolve("notes")
	if pGot2 != pGot {
		t.Fatal("child context change leaked into parent")
	}
}

func TestForkOnCarriesInvokerRoot(t *testing.T) {
	w, m1 := newMachine(t)
	m2 := New(w, "m2")
	if _, err := m2.Tree.Create(core.ParsePath("etc/passwd"), "other"); err != nil {
		t.Fatal(err)
	}

	parent := m1.Spawn("parent")
	remote := parent.ForkOn(m2, "remote-child")
	if remote.Machine != m2 {
		t.Fatal("remote child on wrong machine")
	}
	// Root-of-invoker policy: the remote child sees m1's files.
	got, err := remote.Resolve("/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m1.Tree.Lookup(core.ParsePath("etc/passwd"))
	if got != want {
		t.Fatal("remote child does not resolve in invoker's root")
	}

	// Contrast: a locally spawned process on m2 sees m2's files.
	local := m2.Spawn("local")
	got2, err := local.Resolve("/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := m2.Tree.Lookup(core.ParsePath("etc/passwd"))
	if got2 != want2 || got2 == got {
		t.Fatal("local process does not resolve in its own root")
	}
}

func TestProcessesList(t *testing.T) {
	_, m := newMachine(t)
	if a, b := m.Spawn("a"), m.Spawn("b"); a.PID != 1 || b.PID != 2 {
		t.Fatalf("PIDs = %d, %d; want 1, 2 in spawn order", a.PID, b.PID)
	}
}

func TestRegistryResolve(t *testing.T) {
	w, m := newMachine(t)
	p1 := m.Spawn("p1")
	p2 := m.Spawn("p2")
	reg := NewRegistry()
	reg.Add(p1, p2)

	if _, ok := reg.Get(p1.Activity); !ok {
		t.Fatal("Get failed")
	}
	got, err := reg.ResolveAbs(p1.Activity, core.ParsePath("etc/passwd"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Tree.Lookup(core.ParsePath("etc/passwd"))
	if got != want {
		t.Fatalf("ResolveAbs = %v, want %v", got, want)
	}

	stranger := w.NewActivity("stranger")
	if _, err := reg.ResolveAbs(stranger, core.PathOf("etc")); err == nil {
		t.Fatal("unregistered activity resolved")
	}
}

// Same-machine processes with default roots are coherent for all absolute
// names — the paper's "coherence only among processes that have the same
// binding for the root directory".
func TestSameRootCoherence(t *testing.T) {
	w, m := newMachine(t)
	p1, p2 := m.Spawn("p1"), m.Spawn("p2")
	reg := NewRegistry()
	reg.Add(p1, p2)

	acts := []core.Entity{p1.Activity, p2.Activity}
	paths := []core.Path{core.ParsePath("etc/passwd"), core.ParsePath("home/alice/notes")}
	rep := coherence.Measure(w, reg.ResolveAbs, acts, paths)
	if rep.StrictDegree() != 1 {
		t.Fatalf("StrictDegree = %v, want 1; report %+v", rep.StrictDegree(), rep)
	}
}

// Processes on different machines (different roots) are incoherent for
// machine-local absolute names.
func TestDifferentRootIncoherence(t *testing.T) {
	w, m1 := newMachine(t)
	m2 := New(w, "m2")
	if _, err := m2.Tree.Create(core.ParsePath("etc/passwd"), "other"); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m1.Spawn("p1"), m2.Spawn("p2")
	reg := NewRegistry()
	reg.Add(p1, p2)

	acts := []core.Entity{p1.Activity, p2.Activity}
	paths := []core.Path{core.ParsePath("etc/passwd")}
	rep := coherence.Measure(w, reg.ResolveAbs, acts, paths)
	if rep.Incoherent != 1 {
		t.Fatalf("expected incoherence across machines, report %+v", rep)
	}
}
