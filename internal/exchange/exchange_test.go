package exchange

import (
	"errors"
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/federation"
	"namecoherence/internal/newcastle"
)

// newcastlePair builds a two-machine Newcastle system with a file on each
// machine and one probe process per machine.
func newcastlePair(t *testing.T) (*newcastle.System, *Party, *Party, *Exchanger) {
	t.Helper()
	w := core.NewWorld()
	s, err := newcastle.NewSystem(w, "m1", "m2")
	if err != nil {
		t.Fatal(err)
	}
	for _, mn := range s.MachineNames() {
		m, _ := s.Machine(mn)
		if _, err := m.Tree.Create(core.ParsePath("etc/passwd"), "users@"+mn); err != nil {
			t.Fatal(err)
		}
	}
	p1, err := s.Spawn("m1", "p1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Spawn("m2", "p2")
	if err != nil {
		t.Fatal(err)
	}

	x := NewExchanger(&NewcastleTranslator{System: s})
	a, err := x.Join(p1, "m1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := x.Join(p2, "m2")
	if err != nil {
		t.Fatal(err)
	}
	return s, a, b, x
}

func TestNewcastleTranslatedExchangeCoherent(t *testing.T) {
	_, a, b, x := newcastlePair(t)
	coherent, sent, err := x.RoundTrip(a, b, "/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if !coherent {
		t.Fatal("translated Newcastle exchange incoherent")
	}
	if sent != "/../m1/etc/passwd" {
		t.Fatalf("sent name = %q", sent)
	}
}

func TestIdentityExchangeIncoherent(t *testing.T) {
	w := core.NewWorld()
	s, err := newcastle.NewSystem(w, "m1", "m2")
	if err != nil {
		t.Fatal(err)
	}
	for _, mn := range s.MachineNames() {
		m, _ := s.Machine(mn)
		if _, err := m.Tree.Create(core.ParsePath("etc/passwd"), "users@"+mn); err != nil {
			t.Fatal(err)
		}
	}
	p1, _ := s.Spawn("m1", "p1")
	p2, _ := s.Spawn("m2", "p2")

	x := NewExchanger(nil) // identity baseline
	a, err := x.Join(p1, "m1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := x.Join(p2, "m2")
	if err != nil {
		t.Fatal(err)
	}
	coherent, sent, err := x.RoundTrip(a, b, "/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if coherent {
		t.Fatal("verbatim cross-machine exchange should be incoherent (name collision)")
	}
	if sent != "/etc/passwd" {
		t.Fatalf("identity changed the name: %q", sent)
	}
}

func TestSameMachineExchangeIdentity(t *testing.T) {
	_, a, _, x := newcastlePair(t)
	// Joining a second process on the same machine: translation is the
	// identity and exchange is coherent.
	p1b := a.Proc.Fork("p1b")
	c, err := x.Join(p1b, "m1")
	if err != nil {
		t.Fatal(err)
	}
	coherent, sent, err := x.RoundTrip(a, c, "/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if !coherent || sent != "/etc/passwd" {
		t.Fatalf("same-machine exchange: coherent=%v sent=%q", coherent, sent)
	}
}

func TestPrefixTranslator(t *testing.T) {
	pm := federation.NewPrefixMapper()
	pm.AddRule("/users", "/org2-users")
	tr := &PrefixTranslator{Mapper: pm}
	got, err := tr.Translate("/users/bob", "org2", "org1")
	if err != nil || got != "/org2-users/bob" {
		t.Fatalf("Translate = %q, %v", got, err)
	}
	// Non-matching names pass through.
	got, err = tr.Translate("/other", "org2", "org1")
	if err != nil || got != "/other" {
		t.Fatalf("Translate = %q, %v", got, err)
	}
	if tr.String() != "prefix-mapping" {
		t.Fatalf("String = %q", tr.String())
	}
}

func TestTranslateError(t *testing.T) {
	_, a, b, x := newcastlePair(t)
	// Relative names cannot be mapped by the Newcastle rule.
	if err := x.Send(a, b, "relative/name"); err == nil {
		t.Fatal("expected translate error for relative name")
	}
}

func TestReceiveEmptyMailbox(t *testing.T) {
	_, a, _, _ := newcastlePair(t)
	if _, _, err := a.ReceiveResolve(); !errors.Is(err, ErrNotAName) {
		t.Fatalf("err = %v, want ErrNotAName", err)
	}
}

func TestSendUnjoinedParty(t *testing.T) {
	_, a, _, x := newcastlePair(t)
	stranger := &Party{Proc: a.Proc, Realm: "m1"}
	if err := x.Send(stranger, a, "/etc/passwd"); err == nil {
		t.Fatal("unjoined sender accepted")
	}
	if err := x.Send(a, stranger, "/etc/passwd"); err == nil {
		t.Fatal("unjoined receiver accepted")
	}
}

func TestRoundTripSenderCannotResolve(t *testing.T) {
	_, a, b, x := newcastlePair(t)
	if _, _, err := x.RoundTrip(a, b, "/no/such/file"); err == nil {
		t.Fatal("expected error when sender cannot resolve")
	}
}

func TestIdentityTranslatorString(t *testing.T) {
	if (Identity{}).String() != "identity" {
		t.Fatal("identity label wrong")
	}
	if (&NewcastleTranslator{}).String() != "newcastle-mapping" {
		t.Fatal("newcastle label wrong")
	}
}
