// Package recall holds the shapes bindingsleak guards, beside the forms
// the repo's context type uses instead. CHANGES.md credits the analyzer
// with no caught bug, so these are the guarded shapes, not a past
// finding: a live bindings map handed out by an accessor, passed to a
// change hook, or edited by a helper outside the owning type must keep
// firing, and the copying forms must stay silent.
package recall

import "sync"

// Name and Entity stand in for the core types.
type Name string
type Entity struct{ ID uint64 }

// BasicContext is a directory: its bindings map is the N → E function
// the coherence checker measures.
type BasicContext struct {
	mu       sync.RWMutex
	bindings map[Name]Entity
	onChange func(map[Name]Entity)
}

// Bindings hands out the live map: a caller could rebind a name with no
// lock held and no change hook run.
func (c *BasicContext) Bindings() map[Name]Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bindings // want `bindings map of BasicContext escapes via return`
}

// Snapshot is the form the accessor is replaced by: a copy.
func (c *BasicContext) Snapshot() map[Name]Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[Name]Entity, len(c.bindings))
	for n, e := range c.bindings {
		out[n] = e
	}
	return out
}

// Bind runs the change hook with the live map: the hook may keep it.
func (c *BasicContext) Bind(n Name, e Entity) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bindings[n] = e
	if c.onChange != nil {
		c.onChange(c.bindings) // want `bindings map of BasicContext escapes via call argument`
	}
}

// Unbind runs the hook with a copy: the hook sees the change and cannot
// make one.
func (c *BasicContext) Unbind(n Name) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.bindings, n)
	if c.onChange != nil {
		c.onChange(c.snapshotLocked())
	}
}

func (c *BasicContext) snapshotLocked() map[Name]Entity {
	out := make(map[Name]Entity, len(c.bindings))
	for n, e := range c.bindings {
		out[n] = e
	}
	return out
}

// MergeInto copies src's bindings by reaching into both maps from outside
// the type: no lock is taken and no hook runs.
func MergeInto(dst, src *BasicContext) {
	for n, e := range src.bindings { // want `bindings map of BasicContext accessed outside its methods`
		dst.bindings[n] = e // want `bindings map of BasicContext accessed outside its methods`
	}
}

// Merge is the fixed form: read a snapshot, write through Bind.
func Merge(dst, src *BasicContext) {
	for n, e := range src.Snapshot() {
		dst.Bind(n, e)
	}
}
