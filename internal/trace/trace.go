package trace

import (
	"sort"
	"sync"

	"namecoherence/internal/core"
)

// Counter accumulates per-context lookup counts.
type Counter struct {
	mu     sync.Mutex
	counts map[core.EntityID]int64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[core.EntityID]int64)}
}

// countingContext attributes lookups through inner to entity id.
type countingContext struct {
	inner   core.Context
	counter *Counter
	id      core.EntityID
}

var _ core.Context = (*countingContext)(nil)

// Lookup implements core.Context, counting the call.
func (c *countingContext) Lookup(n core.Name) core.Entity {
	c.counter.mu.Lock()
	c.counter.counts[c.id]++
	c.counter.mu.Unlock()
	return c.inner.Lookup(n)
}

// Bind implements core.Context.
func (c *countingContext) Bind(n core.Name, e core.Entity) { c.inner.Bind(n, e) }

// Unbind implements core.Context.
func (c *countingContext) Unbind(n core.Name) { c.inner.Unbind(n) }

// Names implements core.Context.
func (c *countingContext) Names() []core.Name { return c.inner.Names() }

// Wrap returns a counting context attributing lookups to e.
func (c *Counter) Wrap(e core.Entity, inner core.Context) core.Context {
	return &countingContext{inner: inner, counter: c, id: e.ID}
}

// InstrumentReachable wraps the context of every context object reachable
// from root with a counting wrapper attributing to that object, and
// returns how many were wrapped. Already-instrumented contexts are left
// alone.
func InstrumentReachable(w *core.World, root core.Entity, c *Counter) int {
	wrapped := 0
	for id := range w.Reachable(root) {
		e := core.Entity{ID: id, Kind: core.KindObject}
		if !w.Exists(e) {
			continue
		}
		ctx, ok := w.ContextOf(e)
		if !ok {
			continue
		}
		if _, already := ctx.(*countingContext); already {
			continue
		}
		if err := w.SetState(e, c.Wrap(e, ctx)); err == nil {
			wrapped++
		}
	}
	return wrapped
}

// Count returns the lookups attributed to e.
func (c *Counter) Count(e core.Entity) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[e.ID]
}

// Load is one context's share of the traffic.
type Load struct {
	// Entity is the context object.
	Entity core.EntityID
	// Count is the number of lookups it served.
	Count int64
}

// Top returns the n busiest contexts, descending (ties by id).
func (c *Counter) Top(n int) []Load {
	c.mu.Lock()
	loads := make([]Load, 0, len(c.counts))
	for id, cnt := range c.counts {
		loads = append(loads, Load{Entity: id, Count: cnt})
	}
	c.mu.Unlock()
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Count != loads[j].Count {
			return loads[i].Count > loads[j].Count
		}
		return loads[i].Entity < loads[j].Entity
	})
	if n < len(loads) {
		loads = loads[:n]
	}
	return loads
}
