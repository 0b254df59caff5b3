package exchange

import (
	"errors"
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/federation"
	"namecoherence/internal/machine"
	"namecoherence/internal/netsim"
	"namecoherence/internal/newcastle"
)

// Translator rewrites a textual name crossing from one party's context to
// another's, implementing R(sender) at the boundary. From and to identify
// the parties by their realm labels (machine names, organization names —
// whatever the scheme keys translation on).
type Translator interface {
	// Translate rewrites name for the receiver's context.
	Translate(name, from, to string) (string, error)
	// String names the translator for reports.
	String() string
}

// Identity performs no translation — the R(receiver) baseline.
type Identity struct{}

var _ Translator = Identity{}

// Translate implements Translator.
func (Identity) Translate(name, _, _ string) (string, error) { return name, nil }

// String implements Translator.
func (Identity) String() string { return "identity" }

// NewcastleTranslator maps absolute names between machines of a Newcastle
// Connection using the system's ".."-prefix rule.
type NewcastleTranslator struct {
	// System is the Newcastle Connection the parties live in.
	System *newcastle.System
}

var _ Translator = (*NewcastleTranslator)(nil)

// Translate implements Translator.
func (t *NewcastleTranslator) Translate(name, from, to string) (string, error) {
	return t.System.MapName(from, to, name)
}

// String implements Translator.
func (t *NewcastleTranslator) String() string { return "newcastle-mapping" }

// PrefixTranslator applies a federation prefix map to names crossing in
// one direction (the direction the rules were written for).
type PrefixTranslator struct {
	// Mapper holds the prefix rules.
	Mapper *federation.PrefixMapper
}

var _ Translator = (*PrefixTranslator)(nil)

// Translate implements Translator.
func (t *PrefixTranslator) Translate(name, _, _ string) (string, error) {
	mapped, _ := t.Mapper.Map(name)
	return mapped, nil
}

// String implements Translator.
func (t *PrefixTranslator) String() string { return "prefix-mapping" }

// Party is a process reachable on the network: a resolving process plus an
// endpoint and the realm label translation keys on.
type Party struct {
	// Proc resolves names delivered to the party.
	Proc *machine.Process
	// Realm is the translation key (e.g. the machine name).
	Realm string

	endpoint *netsim.Endpoint
}

// ErrNotAName is returned when a received payload is not a name message.
var ErrNotAName = errors.New("payload is not a name message")

// nameMsg is the wire payload.
type nameMsg struct {
	Name string
}

// Exchanger wires parties together over a network with a boundary
// translator.
type Exchanger struct {
	// Network carries the messages.
	Network *netsim.Network
	// Translator rewrites names in transit (nil means Identity).
	Translator Translator

	nextLocal uint32
	parties   map[*Party]netsim.Addr
}

// NewExchanger returns an exchanger over a fresh network.
func NewExchanger(tr Translator) *Exchanger {
	if tr == nil {
		tr = Identity{}
	}
	return &Exchanger{
		Network:    netsim.NewNetwork(),
		Translator: tr,
		parties:    make(map[*Party]netsim.Addr),
	}
}

// Join registers a process as a party.
func (x *Exchanger) Join(proc *machine.Process, realm string) (*Party, error) {
	x.nextLocal++
	addr := netsim.Addr{Net: 1, Mach: uint32(len(x.parties) + 1), Local: x.nextLocal}
	ep, err := x.Network.Register(addr)
	if err != nil {
		return nil, fmt.Errorf("join %q: %w", realm, err)
	}
	p := &Party{Proc: proc, Realm: realm, endpoint: ep}
	x.parties[p] = addr
	return p, nil
}

// Send transmits a textual name from one party to another, translating it
// at the boundary.
func (x *Exchanger) Send(from, to *Party, name string) error {
	translated, err := x.Translator.Translate(name, from.Realm, to.Realm)
	if err != nil {
		return fmt.Errorf("translate %q %s→%s: %w", name, from.Realm, to.Realm, err)
	}
	fromAddr, ok := x.parties[from]
	if !ok {
		return fmt.Errorf("send: sender not joined")
	}
	toAddr, ok := x.parties[to]
	if !ok {
		return fmt.Errorf("send: receiver not joined")
	}
	return x.Network.Send(fromAddr, toAddr, nameMsg{Name: translated})
}

// ReceiveResolve dequeues the next name message and resolves it in the
// party's own context, returning the entity, the (possibly translated)
// name as received, and any resolution error. It fails with ErrNotAName if
// no name message is pending.
func (p *Party) ReceiveResolve() (core.Entity, string, error) {
	m, ok := p.endpoint.TryRecv()
	if !ok {
		return core.Undefined, "", fmt.Errorf("receive: empty mailbox: %w", ErrNotAName)
	}
	msg, ok := m.Payload.(nameMsg)
	if !ok {
		return core.Undefined, "", fmt.Errorf("receive %T: %w", m.Payload, ErrNotAName)
	}
	e, err := p.Proc.Resolve(msg.Name)
	return e, msg.Name, err
}

// RoundTrip sends a name and immediately receives+resolves it at the far
// end, reporting whether the receiver's entity matches the sender's.
func (x *Exchanger) RoundTrip(from, to *Party, name string) (coherent bool, sent string, err error) {
	want, err := from.Proc.Resolve(name)
	if err != nil {
		return false, "", fmt.Errorf("round trip: sender cannot resolve %q: %w", name, err)
	}
	if err := x.Send(from, to, name); err != nil {
		return false, "", err
	}
	got, sent, resolveErr := to.ReceiveResolve()
	if resolveErr != nil {
		return false, sent, nil // delivered but unresolvable: incoherent, not an error
	}
	return got == want, sent, nil
}
