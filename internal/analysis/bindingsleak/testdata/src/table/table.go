// Package table exercises bindingsleak on a struct-typed bindings field:
// a context whose N → E function is a hand-rolled hash table, as
// core.BasicContext's is. Calling the table's methods from the owning
// type's methods is contained; the struct handed out, or reached from
// outside the owning type, is reported as the map would be.
package table

import "sync"

type Name string

type Entity struct{ ID uint64 }

type slot struct {
	name Name
	ent  Entity
}

// table is the bindings' representation: its methods are its own business.
type table struct {
	slots []slot
	n     int
}

func (t *table) get(n Name) Entity {
	for _, s := range t.slots {
		if s.name == n {
			return s.ent
		}
	}
	return Entity{}
}

func (t *table) put(n Name, e Entity) {
	t.slots = append(t.slots, slot{n, e})
	t.n++
}

func (t *table) clone() table {
	return table{slots: append([]slot(nil), t.slots...), n: t.n}
}

// BasicContext owns the table.
type BasicContext struct {
	mu       sync.RWMutex
	bindings table
}

// Lookup calls the table's method from a method of the owner: allowed.
func (c *BasicContext) Lookup(n Name) Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bindings.get(n)
}

// Bind mutates through the table's method: allowed.
func (c *BasicContext) Bind(n Name, e Entity) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bindings.put(n, e)
}

// Clone fills a fresh owner with a copy: allowed.
func (c *BasicContext) Clone() *BasicContext {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &BasicContext{bindings: c.bindings.clone()}
}

// Raw hands out the struct, whose slots the caller now shares.
func (c *BasicContext) Raw() table {
	return c.bindings // want `bindings map of BasicContext escapes via return`
}

// inspect passes the struct to an arbitrary function.
func (c *BasicContext) inspect(f func(table)) {
	f(c.bindings) // want `bindings map of BasicContext escapes via call argument`
}

// peek calls the table's method outside the owner: no lock is held.
func peek(c *BasicContext, n Name) Entity {
	return c.bindings.get(n) // want `bindings map of BasicContext accessed outside its methods`
}

// count reads the table's own field outside the owner.
func count(c *BasicContext) int {
	return c.bindings.n // want `bindings map of BasicContext accessed outside its methods`
}
