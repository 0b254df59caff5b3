package perproc

import (
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/machine"
)

// LocalName is the conventional attach point of the executing machine's own
// tree inside a per-process namespace.
const LocalName core.Name = "local"

// Proc is a process with a private per-process namespace.
type Proc struct {
	// Process is the underlying activity and context.
	Process *machine.Process
	// NS is the process's private namespace tree; its root is the
	// process's root directory.
	NS *dirtree.Tree
}

// New creates a process on m with a fresh private namespace containing the
// machine's own tree at /local.
func New(m *machine.Machine, label string) (*Proc, error) {
	ns := dirtree.New(m.World, label+":ns")
	if err := ns.Attach(nil, LocalName, m.Tree.Root); err != nil {
		return nil, fmt.Errorf("new per-process namespace: %w", err)
	}
	ctx := core.NewContext()
	ctx.Bind(machine.RootName, ns.Root)
	ctx.Bind(machine.CwdName, ns.Root)
	return &Proc{Process: m.SpawnWith(label, ctx), NS: ns}, nil
}

// Attach attaches a subsystem tree (or any entity) into the namespace under
// name at the directory at `at` — the per-process analogue of mounting.
func (p *Proc) Attach(at core.Path, name core.Name, root core.Entity) error {
	return p.NS.Attach(at, name, root)
}

// Resolve resolves a textual name in the process's namespace.
func (p *Proc) Resolve(name string) (core.Entity, error) {
	return p.Process.Resolve(name)
}

// Activity returns the process's activity entity.
func (p *Proc) Activity() core.Entity { return p.Process.Activity }

// Fork creates a child on the same machine with an independent copy of the
// namespace root bindings (the subtrees themselves are shared — contexts
// are copied only one level deep, like Plan 9's RFNAMEG).
func (p *Proc) Fork(label string) (*Proc, error) {
	return cloneOnto(p, p.Process.Machine, label, false)
}

// RemoteExec creates a child for p on the target machine. The child's
// namespace starts as a copy of the parent's root bindings — so every name
// the parent can pass as a parameter resolves to the same entity for the
// child — except that /local is rebound to the target machine's own tree,
// giving the child access to executor-local files too (§6: "the remotely
// executing process can access files on both its local and its parent's
// machines").
func RemoteExec(p *Proc, target *machine.Machine, label string) (*Proc, error) {
	return cloneOnto(p, target, label, true)
}

// ForkShared creates a child on the same machine whose namespace *shares*
// the parent's root bindings through a union: the child's own attaches go
// to a private overlay (shadowing the parent's view), while bindings the
// parent adds later remain visible to the child. Contrast with Fork, which
// copies at fork time ("coherence … until one of them modifies its
// context", §5.1 — ForkShared keeps the coherence alive).
func (p *Proc) ForkShared(label string) (*Proc, error) {
	m := p.Process.Machine
	w := m.World
	parentRootCtx, ok := w.ContextOf(p.NS.Root)
	if !ok {
		return nil, fmt.Errorf("share namespace: parent root is not a context object")
	}
	overlay := core.NewContext()
	union := core.Union(overlay, parentRootCtx)
	rootObj := w.NewObject(label + ":ns")
	if err := w.SetState(rootObj, union); err != nil {
		return nil, err
	}
	ctx := core.NewContext()
	ctx.Bind(machine.RootName, rootObj)
	ctx.Bind(machine.CwdName, rootObj)
	child := m.SpawnWith(label, ctx)
	child.Parent = p.Process
	return &Proc{Process: child, NS: &dirtree.Tree{W: w, Root: rootObj}}, nil
}

func cloneOnto(p *Proc, target *machine.Machine, label string, rebindLocal bool) (*Proc, error) {
	w := target.World
	childNS := dirtree.New(w, label+":ns")
	childRootCtx, _ := w.ContextOf(childNS.Root)
	parentRootCtx, ok := w.ContextOf(p.NS.Root)
	if !ok {
		return nil, fmt.Errorf("clone namespace: parent root is not a context object")
	}
	for _, n := range parentRootCtx.Names() {
		childRootCtx.Bind(n, parentRootCtx.Lookup(n))
	}
	if rebindLocal {
		childRootCtx.Bind(LocalName, target.Tree.Root)
	}
	ctx := core.NewContext()
	ctx.Bind(machine.RootName, childNS.Root)
	ctx.Bind(machine.CwdName, childNS.Root)
	child := target.SpawnWith(label, ctx)
	child.Parent = p.Process
	return &Proc{Process: child, NS: childNS}, nil
}
