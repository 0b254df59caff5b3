package perproc

import (
	"testing"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/machine"
)

// setup builds two machines with distinct local files and a shared project
// subtree that the parent attaches into its namespace.
func setup(t *testing.T) (w *core.World, m1, m2 *machine.Machine, proj *dirtree.Tree) {
	t.Helper()
	w = core.NewWorld()
	m1 = machine.New(w, "m1")
	m2 = machine.New(w, "m2")
	if _, err := m1.Tree.Create(core.ParsePath("data/one"), "on m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Tree.Create(core.ParsePath("data/two"), "on m2"); err != nil {
		t.Fatal(err)
	}
	proj = dirtree.New(w, "proj")
	if _, err := proj.Create(core.ParsePath("src/main"), "code"); err != nil {
		t.Fatal(err)
	}
	return w, m1, m2, proj
}

func TestNewProcSeesLocal(t *testing.T) {
	_, m1, _, _ := setup(t)
	p, err := New(m1, "p")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Resolve("/local/data/one")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m1.Tree.Lookup(core.ParsePath("data/one"))
	if got != want {
		t.Fatal("/local does not reach the machine tree")
	}
}

func TestAttachAndDetach(t *testing.T) {
	_, m1, _, proj := setup(t)
	p, err := New(m1, "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attach(nil, "proj", proj.Root); err != nil {
		t.Fatal(err)
	}
	got, err := p.Resolve("/proj/src/main")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := proj.Lookup(core.ParsePath("src/main"))
	if got != want {
		t.Fatal("attached subsystem not visible")
	}
	if err := p.NS.Detach(nil, "proj"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Resolve("/proj/src/main"); err == nil {
		t.Fatal("detached subsystem still visible")
	}
}

func TestNamespacesAreIndependent(t *testing.T) {
	_, m1, _, proj := setup(t)
	p1, err := New(m1, "p1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(m1, "p2")
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Attach(nil, "proj", proj.Root); err != nil {
		t.Fatal(err)
	}
	// p2 does not see p1's attachment: per-process, not per-machine.
	if _, err := p2.Resolve("/proj/src/main"); err == nil {
		t.Fatal("attachment leaked between namespaces")
	}
}

func TestForkCopiesBindings(t *testing.T) {
	_, m1, _, proj := setup(t)
	parent, err := New(m1, "parent")
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Attach(nil, "proj", proj.Root); err != nil {
		t.Fatal(err)
	}
	child, err := parent.Fork("child")
	if err != nil {
		t.Fatal(err)
	}
	pGot, _ := parent.Resolve("/proj/src/main")
	cGot, err := child.Resolve("/proj/src/main")
	if err != nil || pGot != cGot {
		t.Fatalf("child does not share parent's view: %v vs %v (%v)", cGot, pGot, err)
	}
	// The copy is one level deep: child detaching does not affect parent.
	if err := child.NS.Detach(nil, "proj"); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Resolve("/proj/src/main"); err != nil {
		t.Fatal("child detach affected parent namespace")
	}
}

func TestRemoteExecParameterCoherence(t *testing.T) {
	w, m1, m2, proj := setup(t)
	parent, err := New(m1, "parent")
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Attach(nil, "proj", proj.Root); err != nil {
		t.Fatal(err)
	}

	child, err := RemoteExec(parent, m2, "child")
	if err != nil {
		t.Fatal(err)
	}
	if child.Process.Machine != m2 {
		t.Fatal("child on wrong machine")
	}
	if child.Process.Parent != parent.Process {
		t.Fatal("child parent not recorded")
	}

	// Names the parent can pass as parameters resolve identically for the
	// remote child — coherence without global names.
	reg := machine.NewRegistry()
	reg.Add(parent.Process, child.Process)
	rep := coherence.Measure(w, reg.ResolveAbs,
		[]core.Entity{parent.Activity(), child.Activity()},
		[]core.Path{core.ParsePath("proj/src/main")})
	if rep.StrictDegree() != 1 {
		t.Fatalf("parameter names not coherent: %+v", rep)
	}

	// The child also reaches executor-local files under /local…
	got, err := child.Resolve("/local/data/two")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m2.Tree.Lookup(core.ParsePath("data/two"))
	if got != want {
		t.Fatal("child cannot reach executor-local files")
	}
	// …and the parent's machine files via the parent's /local binding
	// having been rebound: the parent still sees m1 under /local.
	pLocal, _ := parent.Resolve("/local/data/one")
	wantParent, _ := m1.Tree.Lookup(core.ParsePath("data/one"))
	if pLocal != wantParent {
		t.Fatal("parent /local changed")
	}
}

// Contrast with the per-machine view: a child spawned plainly on the target
// machine is incoherent with the parent for the same parameter names.
func TestPerMachineBaselineIncoherent(t *testing.T) {
	w, m1, m2, proj := setup(t)
	parent, err := New(m1, "parent")
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Attach(nil, "proj", proj.Root); err != nil {
		t.Fatal(err)
	}
	baseline := m2.Spawn("baseline-child")

	reg := machine.NewRegistry()
	reg.Add(parent.Process, baseline)
	rep := coherence.Measure(w, reg.ResolveAbs,
		[]core.Entity{parent.Activity(), baseline.Activity},
		[]core.Path{core.ParsePath("proj/src/main")})
	if rep.Incoherent != 1 {
		t.Fatalf("baseline unexpectedly coherent: %+v", rep)
	}
}

func TestRemoteExecLocalShadowsParent(t *testing.T) {
	_, m1, m2, _ := setup(t)
	parent, err := New(m1, "parent")
	if err != nil {
		t.Fatal(err)
	}
	child, err := RemoteExec(parent, m2, "child")
	if err != nil {
		t.Fatal(err)
	}
	// /local is rebound: the child's /local/data/one (an m1 file) must not
	// resolve, while /local/data/two (m2) must.
	if _, err := child.Resolve("/local/data/one"); err == nil {
		t.Fatal("child /local still points at parent machine")
	}
	if _, err := child.Resolve("/local/data/two"); err != nil {
		t.Fatal("child /local does not point at executor machine")
	}
}

func TestAttachDuplicateFails(t *testing.T) {
	_, m1, _, proj := setup(t)
	p, err := New(m1, "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attach(nil, "proj", proj.Root); err != nil {
		t.Fatal(err)
	}
	if err := p.Attach(nil, "proj", proj.Root); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestForkSharedTracksParentLive(t *testing.T) {
	_, m1, _, proj := setup(t)
	parent, err := New(m1, "parent")
	if err != nil {
		t.Fatal(err)
	}
	copied, err := parent.Fork("copied")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := parent.ForkShared("shared")
	if err != nil {
		t.Fatal(err)
	}

	// Parent attaches a subsystem AFTER both forks.
	if err := parent.Attach(nil, "proj", proj.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := copied.Resolve("/proj/src/main"); err == nil {
		t.Fatal("copy-forked child sees post-fork parent attach")
	}
	if _, err := shared.Resolve("/proj/src/main"); err != nil {
		t.Fatalf("share-forked child misses post-fork parent attach: %v", err)
	}
}

func TestForkSharedOverlayIsPrivate(t *testing.T) {
	w, m1, _, proj := setup(t)
	parent, err := New(m1, "parent")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := parent.ForkShared("shared")
	if err != nil {
		t.Fatal(err)
	}
	// The child attaches into its overlay; the parent must not see it.
	if err := shared.Attach(nil, "mine", proj.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := shared.Resolve("/mine/src/main"); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Resolve("/mine/src/main"); err == nil {
		t.Fatal("child overlay visible to parent")
	}
	_ = w
}

func TestForkSharedShadowing(t *testing.T) {
	w, m1, _, _ := setup(t)
	parent, err := New(m1, "parent")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := parent.ForkShared("shared")
	if err != nil {
		t.Fatal(err)
	}
	// The child shadows the parent's /local with its own tree.
	other := dirtree.New(w, "other")
	marker, err := other.Create(core.ParsePath("marker"), "m")
	if err != nil {
		t.Fatal(err)
	}
	// Plain Attach refuses: the union already shows the parent's /local.
	if err := shared.Attach(nil, LocalName, other.Root); err == nil {
		t.Fatal("Attach over an inherited binding should fail")
	}
	// Binding straight into the child's root context goes to its overlay
	// and shadows the inherited name.
	rootCtx, _ := w.ContextOf(shared.NS.Root)
	rootCtx.Bind(LocalName, other.Root)
	got, err := shared.Resolve("/local/marker")
	if err != nil || got != marker {
		t.Fatalf("shadowed local = %v, %v", got, err)
	}
	// Parent's /local unchanged.
	if _, err := parent.Resolve("/local/marker"); err == nil {
		t.Fatal("parent local shadowed too")
	}
}
