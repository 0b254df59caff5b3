package machine

import (
	"errors"
	"fmt"
	"sync"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
)

// Names of the two distinguished bindings in a process context.
const (
	// RootName binds the directory that absolute names resolve from.
	RootName core.Name = "/"
	// CwdName binds the working directory that relative names resolve from.
	CwdName core.Name = "."
)

// Machine is a computer with a local naming tree.
type Machine struct {
	// Name identifies the machine (unique within a scenario).
	Name string
	// World is the shared world all machines of a scenario live in.
	World *core.World
	// Tree is the machine's local file-system tree.
	Tree *dirtree.Tree

	mu      sync.Mutex
	nextPID int
}

// New creates a machine with a fresh local tree. Trees carry parent links
// ("..") so that schemes like the Newcastle Connection can refer to nodes
// above a machine's root.
func New(w *core.World, name string) *Machine {
	return &Machine{
		Name:  name,
		World: w,
		Tree:  dirtree.NewWithParentLinks(w, name+":/"),
	}
}

// Process is an activity with the Unix-style two-binding context.
type Process struct {
	// PID is the machine-local process id.
	PID int
	// Activity is the entity representing the process in the world.
	Activity core.Entity
	// Machine is where the process executes.
	Machine *Machine
	// Ctx is the process context R(p), holding the "/" and "." bindings
	// (schemes may add more bindings, e.g. per-process attach points).
	Ctx *core.BasicContext
	// Parent is the process that forked or spawned this one, if any.
	Parent *Process
}

// ErrNoRoot is returned when a process resolves an absolute name without a
// root binding (or a relative name without a working-directory binding).
var ErrNoRoot = errors.New("process context lacks the required binding")

// Spawn creates a process on the machine with root and working directory
// bound to the machine tree's root — the typical Unix arrangement where
// R(p)(/) is the root of the machine on which p executes.
func (m *Machine) Spawn(label string) *Process {
	ctx := core.NewContext()
	ctx.Bind(RootName, m.Tree.Root)
	ctx.Bind(CwdName, m.Tree.Root)
	return m.adopt(label, ctx, nil)
}

// SpawnWith creates a process with an explicit context (the caller decides
// the root/cwd bindings). Used by schemes that bind roots unconventionally.
func (m *Machine) SpawnWith(label string, ctx *core.BasicContext) *Process {
	return m.adopt(label, ctx, nil)
}

func (m *Machine) adopt(label string, ctx *core.BasicContext, parent *Process) *Process {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextPID++
	return &Process{
		PID:      m.nextPID,
		Activity: m.World.NewActivity(fmt.Sprintf("%s:%s", m.Name, label)),
		Machine:  m,
		Ctx:      ctx,
		Parent:   parent,
	}
}

// Fork creates a child process on the same machine; the child inherits a
// copy of the parent's context (§5.1: "a child inherits the context of its
// parent"). Parent and child have coherence for all names until one of them
// modifies its context.
func (p *Process) Fork(label string) *Process {
	return p.Machine.adopt(label, p.Ctx.Clone(), p)
}

// ForkOn creates a child on another machine, inheriting a copy of the
// parent's context — remote execution with the "root of the machine where
// the execution was invoked" policy. Use target.Spawn for the opposite
// policy (root of the machine where the child executes).
func (p *Process) ForkOn(target *Machine, label string) *Process {
	return target.adopt(label, p.Ctx.Clone(), p)
}

// Resolve resolves a textual name in the process's context: absolute names
// ("/a/b") start at the root binding, relative ones at the working
// directory. "/" alone denotes the root directory itself.
func (p *Process) Resolve(name string) (core.Entity, error) {
	e, _, err := p.ResolveTrail(name)
	return e, err
}

// ResolveTrail is Resolve but also returns the access trail (the starting
// directory excluded).
func (p *Process) ResolveTrail(name string) (core.Entity, []core.Entity, error) {
	abs, path := core.SplitPathString(name)
	binding := CwdName
	if abs {
		binding = RootName
	}
	start := p.Ctx.Lookup(binding)
	if start.IsUndefined() {
		return core.Undefined, nil, fmt.Errorf("resolve %q: %q: %w", name, binding, ErrNoRoot)
	}
	if len(path) == 0 {
		return start, nil, nil
	}
	startCtx, ok := p.Machine.World.ContextOf(start)
	if !ok {
		return core.Undefined, nil, fmt.Errorf("resolve %q: start is not a directory", name)
	}
	return p.Machine.World.ResolveTrail(startCtx, path)
}

// Registry maps activity entities back to processes, so that scheme-level
// resolution can be probed through the uniform coherence.ResolveFunc shape.
type Registry struct {
	mu    sync.RWMutex
	procs map[core.EntityID]*Process
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{procs: make(map[core.EntityID]*Process)}
}

// Add registers processes.
func (r *Registry) Add(ps ...*Process) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range ps {
		r.procs[p.Activity.ID] = p
	}
}

// Get returns the process for an activity entity.
func (r *Registry) Get(a core.Entity) (*Process, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.procs[a.ID]
	return p, ok
}

// ResolveAbs resolves path as an absolute name on behalf of activity a. Its
// signature matches coherence.ResolveFunc.
func (r *Registry) ResolveAbs(a core.Entity, path core.Path) (core.Entity, error) {
	p, ok := r.Get(a)
	if !ok {
		return core.Undefined, fmt.Errorf("activity %v: no process registered", a)
	}
	return p.Resolve(core.Separator + path.String())
}
