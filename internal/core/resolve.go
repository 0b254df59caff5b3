package core

import (
	"errors"
	"fmt"
)

// ErrEmptyPath is returned when resolving an empty compound name.
var ErrEmptyPath = errors.New("empty compound name")

// NotFoundError reports that a component of a compound name was unbound in
// the context it was resolved in (the resolution reached ⊥E).
type NotFoundError struct {
	Path  Path // the full compound name being resolved
	Depth int  // index of the unbound component
}

// Error implements error.
func (e *NotFoundError) Error() string {
	return fmt.Sprintf("name %q not bound (component %d of %q)",
		e.Path[e.Depth], e.Depth, e.Path)
}

// NotContextError reports that an intermediate component of a compound name
// resolved to an entity whose state is not a context, so resolution cannot
// continue (the paper's "σ(c(n1)) ∉ C" case).
type NotContextError struct {
	Entity Entity // the non-context entity
	Path   Path   // the full compound name being resolved
	Depth  int    // index of the component that resolved to Entity
}

// Error implements error.
func (e *NotContextError) Error() string {
	return fmt.Sprintf("%v (component %d of %q) is not a context object",
		e.Entity, e.Depth, e.Path)
}

// Resolve resolves the compound name p in context c following the paper's
// recursive definition:
//
//	c(n1…nk) = σ(c(n1))(n2…nk)  when σ(c(n1)) ∈ C, and ⊥E otherwise.
//
// It returns the denoted entity, or Undefined together with a *NotFoundError
// or *NotContextError describing where resolution failed.
func (w *World) Resolve(c Context, p Path) (Entity, error) {
	e, _, err := w.walk(c, p, nil)
	return e, err
}

// ResolveIn is Resolve, and also reports the directory the final component
// was looked up in, under the name its watch knows it by: the entity that
// context's hook was installed for (see SetWatch), which every Change the
// hook is told carries as Dir. dir is Undefined when that context is not a
// watched *BasicContext — when nothing will report a change to the binding.
//
// An object's identity is not any one path to it: a directory bound under
// two names is reported as the same dir whichever name the walk came by,
// which is what lets a cache key its entries on (dir, last name) and purge
// every alias of a rebound name at once.
func (w *World) ResolveIn(c Context, p Path) (e, dir Entity, err error) {
	return w.walk(c, p, nil)
}

// ResolveTrail resolves p in c and additionally returns the trail of
// entities denoted by each successive prefix of p (trail[i] = c(n1…n_{i+1})).
// The trail of a successful resolution has len(p) entries and ends with the
// result. On failure the trail contains the entities resolved so far.
//
// The trail records the access path through the naming graph; closure rules
// that depend on where a name was obtained (such as the Algol-scoped R(file)
// rule of §6) search it.
func (w *World) ResolveTrail(c Context, p Path) (Entity, []Entity, error) {
	if len(p) == 0 {
		return Undefined, nil, ErrEmptyPath
	}
	trail := make([]Entity, len(p))
	e, _, err := w.walk(c, p, trail)
	n := 0
	for n < len(trail) && !trail[n].IsUndefined() {
		n++
	}
	return e, trail[:n], err
}

// walk is the one resolution loop. A non-nil trail has room for len(p)
// entities and receives the one each prefix of p denotes; the walk itself
// never allocates on success — this is the server's per-request path — and
// only the failure branches do, constructing their errors.
func (w *World) walk(c Context, p Path, trail []Entity) (Entity, Entity, error) {
	if len(p) == 0 {
		return Undefined, Undefined, ErrEmptyPath
	}
	cur := c
	for i, n := range p {
		e, dir := lookupIn(cur, n)
		if e.IsUndefined() {
			return Undefined, Undefined, &NotFoundError{Path: p.Clone(), Depth: i}
		}
		if trail != nil {
			trail[i] = e
		}
		if i == len(p)-1 {
			return e, dir, nil
		}
		next, ok := w.ContextOf(e)
		if !ok {
			return Undefined, Undefined, &NotContextError{Entity: e, Path: p.Clone(), Depth: i}
		}
		cur = next
	}
	// Unreachable: the loop returns on the last component.
	return Undefined, Undefined, ErrEmptyPath
}

// lookupIn is c.Lookup(n) together with the entity c is watched as (see
// BasicContext.lookupWatched); Undefined for any other implementation.
func lookupIn(c Context, n Name) (e, dir Entity) {
	if bc, ok := c.(*BasicContext); ok {
		return bc.lookupWatched(n)
	}
	return c.Lookup(n), Undefined
}

// MustResolve resolves p in c and panics on failure. It is intended for
// scheme construction code and tests where the binding is known to exist.
func (w *World) MustResolve(c Context, p Path) Entity {
	e, err := w.Resolve(c, p)
	if err != nil {
		panic(fmt.Sprintf("must resolve %q: %v", p, err))
	}
	return e
}
