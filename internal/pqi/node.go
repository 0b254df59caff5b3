package pqi

import (
	"fmt"
	"sync"

	"namecoherence/internal/netsim"
)

// Ref is a reference to a process, exchanged in messages: a subject label
// (who the reference is supposed to denote) plus a pid valid in the
// holder's context. The subject label is experiment bookkeeping — it lets
// the harness check whether the pid still denotes the intended process —
// and is not visible to the naming scheme itself.
type Ref struct {
	Subject string
	PID     PID
}

// Node is a communicating process holding pid references to peers. It wraps
// a network endpoint; its own address follows renumbering automatically.
type Node struct {
	// Name identifies the node in the experiment directory.
	Name string

	network  *netsim.Network
	endpoint *netsim.Endpoint

	mu   sync.Mutex
	held map[string]PID // subject → pid in this node's context
}

// NewNode registers a node at the given address.
func NewNode(nw *netsim.Network, addr netsim.Addr, name string) (*Node, error) {
	ep, err := nw.Register(addr)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", name, err)
	}
	return &Node{Name: name, network: nw, endpoint: ep, held: make(map[string]PID)}, nil
}

// Addr returns the node's current address (reflects renumbering).
func (n *Node) Addr() netsim.Addr { return n.endpoint.Addr() }

// Hold stores a reference in the node's context.
func (n *Node) Hold(subject string, p PID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.held[subject] = p
}

// Held returns the stored reference for subject.
func (n *Node) Held(subject string) (PID, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.held[subject]
	return p, ok
}

// SendRef sends the reference held for subject to the node at `to`.
//
// When mapped is true the embedded pid is translated at the boundary
// (R(sender), the paper's scheme): the receiver stores a pid valid in its
// own context. When false the pid is copied verbatim (the R(receiver)
// baseline): whatever qualification the sender held is what the receiver
// gets, coherent only if the pid happens to be interpretable identically in
// the receiver's context.
func (n *Node) SendRef(to netsim.Addr, subject string, mapped bool) error {
	p, ok := n.Held(subject)
	if !ok {
		return fmt.Errorf("send ref %q: not held", subject)
	}
	out := p
	if mapped {
		var err error
		out, err = Map(p, n.Addr(), to)
		if err != nil {
			return fmt.Errorf("send ref %q: %w", subject, err)
		}
	}
	return n.network.Send(n.Addr(), to, Ref{Subject: subject, PID: out})
}

// Drain receives all pending messages, storing every Ref payload, and
// returns how many refs were stored.
func (n *Node) Drain() int {
	count := 0
	for {
		m, ok := n.endpoint.TryRecv()
		if !ok {
			return count
		}
		if r, ok := m.Payload.(Ref); ok {
			n.Hold(r.Subject, r.PID)
			count++
		}
	}
}

// RefValid reports whether the reference held for subject still denotes the
// process the directory lists under that name: the pid is resolved in this
// node's (current) context and compared against the target's (current)
// address. This is the "does the connection survive" check of E7.
func (n *Node) RefValid(subject string, directory map[string]*Node) bool {
	p, ok := n.Held(subject)
	if !ok {
		return false
	}
	abs, err := Absolute(p, n.Addr())
	if err != nil {
		return false
	}
	target, ok := directory[subject]
	return ok && target.Addr() == abs
}
