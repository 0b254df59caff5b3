package naming_test

import (
	"fmt"
	"strings"

	"namecoherence/naming"
)

// The model in miniature: contexts map names to entities; compound names
// resolve through context objects.
func Example_resolve() {
	w := naming.NewWorld()
	_, rootCtx := w.NewContextObject("root")
	docs, docsCtx := w.NewContextObject("docs")
	paper := w.NewObject("paper")
	rootCtx.Bind("docs", docs)
	docsCtx.Bind("paper", paper)

	e, err := w.Resolve(rootCtx, naming.ParsePath("docs/paper"))
	fmt.Println(w.Label(e), err)
	// Output: paper <nil>
}

// Closure mechanisms select the context a name is resolved in; coherence
// asks whether a name means the same thing to different activities.
func Example_coherence() {
	w := naming.NewWorld()
	alice, bob := w.NewActivity("alice"), w.NewActivity("bob")
	motd := w.NewObject("motd")

	contexts := naming.NewAssoc()
	for _, a := range []naming.Entity{alice, bob} {
		ctx := naming.NewContext()
		ctx.Bind("motd", motd)                      // same entity for both
		ctx.Bind("tmp", w.NewObject("private-tmp")) // different entities
		contexts.Set(a, ctx)
	}
	r := naming.NewResolver(w, &naming.ActivityRule{Contexts: contexts})
	resolve := func(a naming.Entity, p naming.Path) (naming.Entity, error) {
		return r.Resolve(naming.Internal(a), p)
	}

	acts := []naming.Entity{alice, bob}
	fmt.Println(naming.CheckName(w, resolve, acts, naming.ParsePath("motd")))
	fmt.Println(naming.CheckName(w, resolve, acts, naming.ParsePath("tmp")))
	// Output:
	// coherent
	// incoherent
}

// Weak coherence: replicated objects need only resolve to replicas of the
// same replicated object (§5 of the paper).
func Example_weakCoherence() {
	w := naming.NewWorld()
	a1, a2 := w.NewActivity("a1"), w.NewActivity("a2")
	bin1, bin2 := w.NewObject("ls@m1"), w.NewObject("ls@m2")
	if _, err := w.NewReplicaGroup(bin1, bin2); err != nil {
		panic(err)
	}

	contexts := naming.NewAssoc()
	c1, c2 := naming.NewContext(), naming.NewContext()
	c1.Bind("ls", bin1)
	c2.Bind("ls", bin2)
	contexts.Set(a1, c1)
	contexts.Set(a2, c2)

	r := naming.NewResolver(w, &naming.ActivityRule{Contexts: contexts})
	resolve := func(a naming.Entity, p naming.Path) (naming.Entity, error) {
		return r.Resolve(naming.Internal(a), p)
	}
	fmt.Println(naming.CheckName(w, resolve, []naming.Entity{a1, a2}, naming.ParsePath("ls")))
	// Output: weak
}

// Treespec builds naming trees from text.
func ExampleParseTreeSpec() {
	w := naming.NewWorld()
	tr, err := naming.ParseTreeSpec(strings.NewReader(`
dir /usr/bin
file /usr/bin/ls "#!ls"
link /mnt /usr
`), w, "demo")
	if err != nil {
		panic(err)
	}
	direct, _ := tr.Lookup(naming.ParsePath("usr/bin/ls"))
	viaLink, _ := tr.Lookup(naming.ParsePath("mnt/bin/ls"))
	fmt.Println(direct == viaLink)
	// Output: true
}

// The prefix mapper is the paper's "human closure mechanism" for crossing
// scope boundaries.
func ExampleNewPrefixMapper() {
	pm := naming.NewPrefixMapper()
	pm.AddRule("/users", "/org2/users")
	mapped, ok := pm.Map("/users/bob/profile")
	fmt.Println(mapped, ok)
	// Output: /org2/users/bob/profile true
}

// Partially qualified identifiers keep intra-subsystem references valid
// across renumbering.
func ExamplePIDRelativize() {
	holder := naming.Addr{Net: 1, Mach: 2, Local: 3}
	sameMachine := naming.Addr{Net: 1, Mach: 2, Local: 9}
	otherNet := naming.Addr{Net: 4, Mach: 7, Local: 1}
	fmt.Println(naming.PIDRelativize(sameMachine, holder))
	fmt.Println(naming.PIDRelativize(otherNet, holder))
	// Output:
	// (0,0,9)
	// (4,7,1)
}
