package pqi

import (
	"testing"

	"namecoherence/internal/netsim"
)

// cluster builds three nodes: a and b on machine 1, c on machine 2, all on
// network 1.
func cluster(t *testing.T) (nw *netsim.Network, a, b, c *Node, dir map[string]*Node) {
	t.Helper()
	nw = netsim.NewNetwork()
	var err error
	a, err = NewNode(nw, netsim.Addr{Net: 1, Mach: 1, Local: 1}, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewNode(nw, netsim.Addr{Net: 1, Mach: 1, Local: 2}, "b")
	if err != nil {
		t.Fatal(err)
	}
	c, err = NewNode(nw, netsim.Addr{Net: 1, Mach: 2, Local: 1}, "c")
	if err != nil {
		t.Fatal(err)
	}
	dir = map[string]*Node{"a": a, "b": b, "c": c}
	return nw, a, b, c, dir
}

func TestNodeHoldAndValidity(t *testing.T) {
	_, a, b, _, dir := cluster(t)
	a.Hold("b", Relativize(b.Addr(), a.Addr()))
	if !a.RefValid("b", dir) {
		t.Fatal("fresh ref invalid")
	}
	if a.RefValid("c", dir) {
		t.Fatal("unheld ref reported valid")
	}
	if _, ok := a.Held("b"); !ok {
		t.Fatal("held ref not returned")
	}
}

func TestSendRefMapped(t *testing.T) {
	_, a, b, c, dir := cluster(t)
	// a holds a minimally qualified ref to b (same machine: (0,0,2)).
	a.Hold("b", Relativize(b.Addr(), a.Addr()))
	// a sends the ref to c on another machine, with boundary mapping.
	if err := a.SendRef(c.Addr(), "b", true); err != nil {
		t.Fatal(err)
	}
	if got := c.Drain(); got != 1 {
		t.Fatalf("Drain = %d", got)
	}
	// c's stored pid must denote b in c's context.
	if !c.RefValid("b", dir) {
		t.Fatal("mapped ref not valid at receiver")
	}
	p, _ := c.Held("b")
	if p.Level() != 2 {
		t.Fatalf("mapped pid %v has level %d, want 2 (same network, other machine)", p, p.Level())
	}
}

func TestSendRefUnmappedIncoherent(t *testing.T) {
	_, a, b, c, dir := cluster(t)
	a.Hold("b", Relativize(b.Addr(), a.Addr())) // (0,0,2) in a's context
	// Without mapping (R(receiver) baseline), c interprets (0,0,2) in its
	// own context: machine 2 local 2 — the wrong process (or nothing).
	if err := a.SendRef(c.Addr(), "b", false); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	if c.RefValid("b", dir) {
		t.Fatal("unmapped partially qualified ref should be incoherent at receiver")
	}
}

func TestSendRefSelf(t *testing.T) {
	_, a, _, c, dir := cluster(t)
	a.Hold("a", Self)
	if err := a.SendRef(c.Addr(), "a", true); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	if !c.RefValid("a", dir) {
		t.Fatal("mapped self-ref not valid at receiver")
	}
}

func TestSendRefErrors(t *testing.T) {
	_, a, _, c, _ := cluster(t)
	if err := a.SendRef(c.Addr(), "nope", true); err == nil {
		t.Fatal("sending unheld ref should fail")
	}
}

func TestRenumberSurvival(t *testing.T) {
	nw, a, b, c, dir := cluster(t)

	// Intra-machine connection with PQI: a→b as (0,0,2).
	a.Hold("b", Relativize(b.Addr(), a.Addr()))
	// Same connection fully qualified.
	fq, err := RelativizeAt(b.Addr(), a.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	a.Hold("b-fq", fq)
	dir["b-fq"] = b
	// Cross-machine connection from c to a, fully qualified (minimal for
	// cross-machine within one network is level 2; both break equally).
	c.Hold("a", Relativize(a.Addr(), c.Addr()))

	// Renumber machine 1 → machine 9.
	if _, err := nw.RenumberMachine(1, 1, 9); err != nil {
		t.Fatal(err)
	}

	// The partially qualified intra-machine ref survives: both endpoints
	// moved together.
	if !a.RefValid("b", dir) {
		t.Fatal("PQI intra-machine ref did not survive renumbering")
	}
	// The fully qualified ref is stale: it still names machine 1.
	if a.RefValid("b-fq", dir) {
		t.Fatal("fully qualified ref survived renumbering")
	}
	// The external ref breaks in either scheme (the holder is outside the
	// renamed machine).
	if c.RefValid("a", dir) {
		t.Fatal("external ref survived renumbering")
	}
}
