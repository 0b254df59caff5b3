package federation

import (
	"errors"
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/sharedns"
)

// twoOrgs builds the §7 scenario: two organizations, each attaching its
// users' home directories under /users in its own shared space.
func twoOrgs(t *testing.T) (*core.World, *Federation, *sharedns.System, *sharedns.System) {
	t.Helper()
	w := core.NewWorld()
	f := New(w)

	org1, err := sharedns.NewSystem(w, "o1c1", "o1c2")
	if err != nil {
		t.Fatal(err)
	}
	org2, err := sharedns.NewSystem(w, "o2c1")
	if err != nil {
		t.Fatal(err)
	}
	users1, err := org1.AttachSpace("users")
	if err != nil {
		t.Fatal(err)
	}
	users2, err := org2.AttachSpace("users")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := users1.Tree.Create(core.ParsePath("alice/profile"), "alice@org1"); err != nil {
		t.Fatal(err)
	}
	if _, err := users2.Tree.Create(core.ParsePath("bob/profile"), "bob@org2"); err != nil {
		t.Fatal(err)
	}

	if err := f.AddSystem("org1", org1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSystem("org2", org2); err != nil {
		t.Fatal(err)
	}
	return w, f, org1, org2
}

func TestAddSystemDuplicate(t *testing.T) {
	w, f, org1, _ := func() (*core.World, *Federation, *sharedns.System, *sharedns.System) {
		w := core.NewWorld()
		f := New(w)
		s, _ := sharedns.NewSystem(w, "c")
		_ = f.AddSystem("s", s)
		return w, f, s, nil
	}()
	_ = w
	if err := f.AddSystem("s", org1); err == nil {
		t.Fatal("duplicate AddSystem succeeded")
	}
	if _, err := f.System("nope"); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrossLink(t *testing.T) {
	_, f, _, _ := twoOrgs(t)
	// org1 attaches org2's /users space under /org2-users in every client.
	if err := f.CrossLink("org1", "org2-users", "org2", "users", "/"); err != nil {
		t.Fatal(err)
	}
	org1, _ := f.System("org1")
	p, err := org1.Spawn("o1c1", "p")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Resolve("/org2-users/bob/profile")
	if err != nil {
		t.Fatal(err)
	}
	org2, _ := f.System("org2")
	var want core.Entity
	for _, sp := range org2.Spaces() {
		if sp.Name == "users" {
			want, _ = sp.Tree.Lookup(core.ParsePath("bob/profile"))
		}
	}
	if got != want {
		t.Fatal("cross-link resolves to wrong entity")
	}
}

func TestCrossLinkErrors(t *testing.T) {
	_, f, _, _ := twoOrgs(t)
	if err := f.CrossLink("nope", "x", "org2", "users", "/"); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("err = %v", err)
	}
	if err := f.CrossLink("org1", "x", "nope", "users", "/"); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("err = %v", err)
	}
	if err := f.CrossLink("org1", "x", "org2", "no-space", "/"); err == nil {
		t.Fatal("missing space accepted")
	}
	if err := f.CrossLink("org1", "x", "org2", "users", "/missing/path"); err == nil {
		t.Fatal("missing path accepted")
	}
}

func TestPrefixMapper(t *testing.T) {
	pm := NewPrefixMapper()
	pm.AddRule("/users", "/org2-users")
	pm.AddRule("/users/special", "/override")

	tests := []struct {
		give       string
		want       string
		wantMapped bool
	}{
		{give: "/users/bob/profile", want: "/org2-users/bob/profile", wantMapped: true},
		{give: "/users", want: "/org2-users", wantMapped: true},
		// Longest prefix wins.
		{give: "/users/special/x", want: "/override/x", wantMapped: true},
		{give: "/other/x", want: "/other/x", wantMapped: false},
		{give: "relative/name", want: "relative/name", wantMapped: false},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got, mapped := pm.Map(tt.give)
			if got != tt.want || mapped != tt.wantMapped {
				t.Fatalf("Map(%q) = (%q, %v), want (%q, %v)",
					tt.give, got, mapped, tt.want, tt.wantMapped)
			}
		})
	}
}

func TestExchangeNameWithoutMapping(t *testing.T) {
	_, f, org1, org2 := twoOrgs(t)
	_ = f
	sender, err := org2.Spawn("o2c1", "sender")
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := org1.Spawn("o1c1", "receiver")
	if err != nil {
		t.Fatal(err)
	}
	// /users/bob/profile exists in org2 and not in org1: verbatim exchange
	// is incoherent.
	out := ExchangeName(sender, receiver, "/users/bob/profile", nil)
	if out.Coherent {
		t.Fatal("verbatim cross-boundary exchange unexpectedly coherent")
	}
	if out.SenderEntity.IsUndefined() {
		t.Fatal("sender could not resolve its own name")
	}
}

func TestExchangeNameWithMapping(t *testing.T) {
	_, f, org1, org2 := twoOrgs(t)
	if err := f.CrossLink("org1", "org2-users", "org2", "users", "/"); err != nil {
		t.Fatal(err)
	}
	sender, _ := org2.Spawn("o2c1", "sender")
	receiver, _ := org1.Spawn("o1c1", "receiver")

	pm := NewPrefixMapper()
	pm.AddRule("/users", "/org2-users")

	out := ExchangeName(sender, receiver, "/users/bob/profile", pm)
	if !out.Mapped {
		t.Fatal("mapping did not apply")
	}
	if out.SentName != "/org2-users/bob/profile" {
		t.Fatalf("SentName = %q", out.SentName)
	}
	if !out.Coherent {
		t.Fatal("mapped exchange incoherent")
	}
}

// Names that collide across boundaries are worse than missing ones: the
// receiver resolves them to a different entity.
func TestExchangeNameCollision(t *testing.T) {
	_, _, org1, org2 := twoOrgs(t)
	// org1 also has an alice under /users — same textual name, different
	// entity than org2's files.
	sender, _ := org1.Spawn("o1c1", "sender")
	receiver2, _ := org2.Spawn("o2c1", "receiver")

	// Create a colliding path in org2's users space.
	for _, sp := range org2.Spaces() {
		if sp.Name == "users" {
			if _, err := sp.Tree.Create(core.ParsePath("alice/profile"), "impostor"); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := ExchangeName(sender, receiver2, "/users/alice/profile", nil)
	if out.Coherent {
		t.Fatal("colliding names reported coherent")
	}
	if out.ReceiverEntity.IsUndefined() {
		t.Fatal("receiver should resolve the colliding name (to the wrong entity)")
	}
}
