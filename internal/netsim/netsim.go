package netsim

import (
	"errors"
	"fmt"
	"sync"
)

// Addr is a hierarchical process address: network, machine and local
// component. The zero value of a component means "unspecified" in partially
// qualified identifiers; a routable address has all three components
// non-zero.
type Addr struct {
	Net, Mach, Local uint32
}

// String renders the address as "(n,m,l)".
func (a Addr) String() string {
	return fmt.Sprintf("(%d,%d,%d)", a.Net, a.Mach, a.Local)
}

// IsComplete reports whether all three components are specified.
func (a Addr) IsComplete() bool {
	return a.Net != 0 && a.Mach != 0 && a.Local != 0
}

// Message is a payload in flight between two endpoints.
type Message struct {
	// From and To are the addresses the message was sent between. From
	// reflects the sender's address at send time.
	From, To Addr
	// Payload is the message body.
	Payload any
}

// Errors returned by network operations.
var (
	ErrUnreachable  = errors.New("address unreachable")
	ErrDuplicate    = errors.New("address already registered")
	ErrIncomplete   = errors.New("address incomplete")
	ErrNoSuchTarget = errors.New("no endpoints matched")
)

// Endpoint is a registered receiver with a mailbox. Its address may change
// while registered (renumbering); Addr always returns the current one.
type Endpoint struct {
	mu    sync.Mutex
	addr  Addr
	queue []Message
}

// Addr returns the endpoint's current address.
func (e *Endpoint) Addr() Addr {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addr
}

func (e *Endpoint) deliver(m Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queue = append(e.queue, m)
}

// TryRecv dequeues the next message without blocking.
func (e *Endpoint) TryRecv() (Message, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.queue) == 0 {
		return Message{}, false
	}
	m := e.queue[0]
	e.queue = e.queue[1:]
	return m, true
}

// Network is the registry and router for endpoints.
type Network struct {
	mu        sync.Mutex
	endpoints map[Addr]*Endpoint
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{endpoints: make(map[Addr]*Endpoint)}
}

// Register creates an endpoint at the given (complete) address.
func (n *Network) Register(a Addr) (*Endpoint, error) {
	if !a.IsComplete() {
		return nil, fmt.Errorf("register %v: %w", a, ErrIncomplete)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[a]; ok {
		return nil, fmt.Errorf("register %v: %w", a, ErrDuplicate)
	}
	e := &Endpoint{addr: a}
	n.endpoints[a] = e
	return e, nil
}

// Send routes a payload from `from` to `to`. Delivery fails with
// ErrUnreachable if no endpoint is registered at `to`.
func (n *Network) Send(from, to Addr, payload any) error {
	n.mu.Lock()
	ep, ok := n.endpoints[to]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("send %v->%v: %w", from, to, ErrUnreachable)
	}
	ep.deliver(Message{From: from, To: to, Payload: payload})
	return nil
}

// RenumberMachine changes machine oldMach on network netID to newMach,
// rewriting the addresses of all its endpoints. It returns the number of
// endpoints moved. This is the paper's "address of a machine is changed as
// part of relocation or reconfiguration": afterwards, stale fully qualified
// addresses no longer reach the machine.
func (n *Network) RenumberMachine(netID, oldMach, newMach uint32) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var moved []*Endpoint
	for a := range n.endpoints {
		if a.Net == netID && a.Mach == newMach {
			return 0, fmt.Errorf("renumber machine %d->%d: %w", oldMach, newMach, ErrDuplicate)
		}
	}
	for a, ep := range n.endpoints {
		if a.Net == netID && a.Mach == oldMach {
			moved = append(moved, ep)
			delete(n.endpoints, a)
		}
	}
	if len(moved) == 0 {
		return 0, fmt.Errorf("renumber machine %d on net %d: %w", oldMach, netID, ErrNoSuchTarget)
	}
	for _, ep := range moved {
		ep.mu.Lock()
		ep.addr.Mach = newMach
		a := ep.addr
		ep.mu.Unlock()
		n.endpoints[a] = ep
	}
	return len(moved), nil
}

// RenumberNetwork changes network id oldNet to newNet for all endpoints and
// returns how many moved.
func (n *Network) RenumberNetwork(oldNet, newNet uint32) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for a := range n.endpoints {
		if a.Net == newNet {
			return 0, fmt.Errorf("renumber network %d->%d: %w", oldNet, newNet, ErrDuplicate)
		}
	}
	var moved []*Endpoint
	for a, ep := range n.endpoints {
		if a.Net == oldNet {
			moved = append(moved, ep)
			delete(n.endpoints, a)
		}
	}
	if len(moved) == 0 {
		return 0, fmt.Errorf("renumber network %d: %w", oldNet, ErrNoSuchTarget)
	}
	for _, ep := range moved {
		ep.mu.Lock()
		ep.addr.Net = newNet
		a := ep.addr
		ep.mu.Unlock()
		n.endpoints[a] = ep
	}
	return len(moved), nil
}
