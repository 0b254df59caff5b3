package naming_test

import (
	"testing"

	"namecoherence/naming"
)

// The facade must support the full quick-start flow without touching
// internal packages.
func TestFacadeQuickstart(t *testing.T) {
	w := naming.NewWorld()
	_, dirCtx := w.NewContextObject("root")
	file := w.NewObject("file")
	dirCtx.Bind("f", file)

	got, err := w.Resolve(dirCtx, naming.ParsePath("f"))
	if err != nil {
		t.Fatal(err)
	}
	if got != file {
		t.Fatalf("Resolve = %v", got)
	}
}

func TestFacadeRulesAndCoherence(t *testing.T) {
	w := naming.NewWorld()
	a1, a2 := w.NewActivity("a1"), w.NewActivity("a2")
	shared := w.NewObject("shared")

	assoc := naming.NewAssoc()
	for _, a := range []naming.Entity{a1, a2} {
		ctx := naming.NewContext()
		ctx.Bind("g", shared)
		ctx.Bind("x", w.NewObject("private"))
		assoc.Set(a, ctx)
	}
	r := naming.NewResolver(w, &naming.ActivityRule{Contexts: assoc})
	resolve := func(a naming.Entity, p naming.Path) (naming.Entity, error) {
		return r.Resolve(naming.Internal(a), p)
	}
	rep := naming.Measure(w, resolve, []naming.Entity{a1, a2},
		[]naming.Path{naming.PathOf("g"), naming.PathOf("x")})
	if rep.Coherent != 1 || rep.Incoherent != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if naming.CheckName(w, resolve, []naming.Entity{a1, a2}, naming.PathOf("g")) != naming.Coherent {
		t.Fatal("g should be coherent")
	}
}

func TestFacadeNewcastle(t *testing.T) {
	w := naming.NewWorld()
	s, err := naming.NewNewcastle(w, "m1", "m2")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s.Machine("m1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Tree.Create(naming.ParsePath("etc/passwd"), "x"); err != nil {
		t.Fatal(err)
	}
	p2, err := s.Spawn("m2", "p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Resolve("/../m1/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	if s.MachineNames()[0] != "m1" {
		t.Fatal("machine order wrong")
	}
	_ = naming.RootOfInvoker
	_ = naming.RootOfExecutor
}

func TestFacadeSharedAndFederation(t *testing.T) {
	w := naming.NewWorld()
	s, err := naming.NewSharedNS(w, "c1", "c2")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := s.AttachSpace(naming.ViceName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Tree.Create(naming.ParsePath("x"), "v"); err != nil {
		t.Fatal(err)
	}
	f := naming.NewFederation(w)
	if err := f.AddSystem("s", s); err != nil {
		t.Fatal(err)
	}
	pm := naming.NewPrefixMapper()
	pm.AddRule("/a", "/b")
	if got, ok := pm.Map("/a/x"); !ok || got != "/b/x" {
		t.Fatalf("Map = %q, %v", got, ok)
	}
}

func TestFacadePQI(t *testing.T) {
	nw := naming.NewNetwork()
	n1, err := naming.NewPQINode(nw, naming.Addr{Net: 1, Mach: 1, Local: 1}, "n1")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := naming.NewPQINode(nw, naming.Addr{Net: 1, Mach: 1, Local: 2}, "n2")
	if err != nil {
		t.Fatal(err)
	}
	p := naming.PIDRelativize(n2.Addr(), n1.Addr())
	if p.Level() != 1 {
		t.Fatalf("level = %d", p.Level())
	}
	abs, err := naming.PIDAbsolute(p, n1.Addr())
	if err != nil || abs != n2.Addr() {
		t.Fatalf("abs = %v, %v", abs, err)
	}
	if _, err := naming.PIDMap(p, n1.Addr(), n2.Addr()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePerProcAndEmbedded(t *testing.T) {
	w := naming.NewWorld()
	m := naming.NewMachine(w, "m")
	proc, err := naming.NewPerProc(m, "p")
	if err != nil {
		t.Fatal(err)
	}
	proj := naming.NewTree(w, "proj")
	target, err := proj.Create(naming.ParsePath("lib/t"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proj.Create(naming.ParsePath("src/s"), "y", naming.ParsePath("lib/t")); err != nil {
		t.Fatal(err)
	}
	if err := proc.Attach(nil, "proj", proj.Root); err != nil {
		t.Fatal(err)
	}
	file, trail, err := proc.Process.ResolveTrail("/proj/src/s")
	if err != nil {
		t.Fatal(err)
	}
	_ = file
	root, _ := proc.Resolve("/")
	chain := naming.ScopeChain(root, trail)
	got, _, err := naming.ResolveEmbedded(w, chain, naming.ParsePath("lib/t"))
	if err != nil {
		t.Fatal(err)
	}
	if got != target {
		t.Fatalf("embedded = %v, want %v", got, target)
	}
}

func TestFacadeReplicatedService(t *testing.T) {
	w := naming.NewWorld()
	cl, err := naming.NewReplicatedCluster(w, `file /f "x"`, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var es []naming.Entity
	for _, addr := range cl.Routes().Replicas[0] {
		c, err := naming.DialNameServer("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		e, err := c.Resolve(naming.ParsePath("f"))
		_ = c.Close()
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, e)
	}
	if es[0] == es[1] || !w.SameReplica(es[0], es[1]) {
		t.Fatalf("replicas answered %v and %v; want distinct, weakly coherent entities", es[0], es[1])
	}
	client, err := naming.DialShardedCluster("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if e, err := client.Resolve(naming.ParsePath("f")); err != nil || !w.SameReplica(es[0], e) {
		t.Fatalf("cluster client resolved %v, %v; want a replica of %v", e, err, es[0])
	}
}
