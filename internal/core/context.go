package core

import (
	"sort"
	"sync"
)

// Context is the model's C = [N → E]: a function from names to entities.
// Contexts are total: Lookup returns the undefined entity for unbound names.
//
// Implementations must be safe for concurrent use; schemes mutate contexts
// while activities (goroutines) resolve through them.
type Context interface {
	// Lookup returns the entity the name is bound to, or Undefined.
	Lookup(Name) Entity
	// Bind binds name to entity, replacing any previous binding. Binding a
	// name to Undefined is equivalent to Unbind.
	Bind(Name, Entity)
	// Unbind removes the binding for name, if any.
	Unbind(Name)
	// Names returns the bound names in sorted order.
	Names() []Name
}

// BasicContext is the standard mutable Context backed by one binding table
// (see table). The zero value is an empty, unwatched context.
type BasicContext struct {
	mu       sync.RWMutex
	bindings table
	onChange func(Change) // change hook, nil until SetWatch; never replaced
	watchDir Entity       // the directory the hook was installed for (see SetWatch)
}

var _ Context = (*BasicContext)(nil)

// NewContext returns an empty context.
func NewContext() *BasicContext {
	return &BasicContext{}
}

// Lookup returns the entity bound to name, or Undefined.
func (c *BasicContext) Lookup(n Name) Entity {
	c.mu.RLock()
	e := c.bindings.get(n)
	c.mu.RUnlock()
	return e
}

// lookupWatched is Lookup that also reports the entity the context's watch
// was installed for (Undefined while unwatched), read under the one lock.
func (c *BasicContext) lookupWatched(n Name) (e, dir Entity) {
	c.mu.RLock()
	e, dir = c.bindings.get(n), c.watchDir
	c.mu.RUnlock()
	return e, dir
}

// Bind binds name to entity. Binding to Undefined removes the binding, so
// that Names reflects only defined bindings.
func (c *BasicContext) Bind(n Name, e Entity) {
	c.mu.Lock()
	var old Entity
	if e.IsUndefined() {
		old = c.bindings.del(n)
	} else {
		old = c.bindings.put(n, e)
	}
	hook, dir := c.onChange, c.watchDir
	c.mu.Unlock()
	if hook != nil {
		hook(Change{Dir: dir, Name: n, Old: old, New: e})
	}
}

// Unbind removes the binding for name.
func (c *BasicContext) Unbind(n Name) {
	c.Bind(n, Undefined)
}

// Names returns the bound names in sorted order.
func (c *BasicContext) Names() []Name {
	c.mu.RLock()
	names := make([]Name, 0, c.bindings.n)
	c.bindings.each(func(n Name, _ Entity) { names = append(names, n) })
	c.mu.RUnlock()
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// Clone returns an independent, unwatched copy of the context. Parent/child
// context inheritance (a child "inherits the context of its parent", §5.1)
// is modelled by cloning at fork time.
func (c *BasicContext) Clone() *BasicContext {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &BasicContext{bindings: c.bindings.clone()}
}
