// Package nameserver exercises mutbump: a function in a server package
// that mutates a binding on a context-shaped value must reach a revision
// advance — a //namingvet:revbump function — before it returns. (The
// directory is named nameserver so the testdata package path lands in the
// analyzer's scope.)
package nameserver

// Name and Entity stand in for the core types.
type Name string
type Entity struct{ ID uint64 }

// BasicContext is the fixture's context-shaped mutation primitive.
type BasicContext struct{ m map[Name]Entity }

func (c *BasicContext) Lookup(n Name) Entity  { return c.m[n] }
func (c *BasicContext) Bind(n Name, e Entity) { c.m[n] = e }
func (c *BasicContext) Unbind(n Name)         { delete(c.m, n) }
func (c *BasicContext) Names() []Name         { return nil }

// UnionContext writes through to a layer; its own Bind/Unbind are exempt —
// they ARE the primitive, the obligation sits with their callers.
type UnionContext struct{ inner *BasicContext }

func (c *UnionContext) Lookup(n Name) Entity  { return c.inner.Lookup(n) }
func (c *UnionContext) Bind(n Name, e Entity) { c.inner.Bind(n, e) }
func (c *UnionContext) Unbind(n Name)         { c.inner.Unbind(n) }
func (c *UnionContext) Names() []Name         { return c.inner.Names() }

// Server owns the revision.
type Server struct {
	rev uint64
	ctx *BasicContext
}

// Bump advances the revision.
//
//namingvet:revbump
func (s *Server) Bump() { s.rev++ }

// SetRevision adopts a replicated revision tag.
//
//namingvet:revbump
func (s *Server) SetRevision(rev uint64) {
	if rev > s.rev {
		s.rev = rev
	}
}

// applyBind mutates and bumps — the disciplined write path.
func (s *Server) applyBind(n Name, e Entity) {
	s.ctx.Bind(n, e)
	s.Bump()
}

// applyViaHelper discharges the obligation transitively.
func (s *Server) applyViaHelper(n Name) {
	s.ctx.Unbind(n)
	s.commit()
}

// commit reaches a bump one more hop away.
func (s *Server) commit() { s.Bump() }

// applyReplica discharges through SetRevision — the replica apply path.
func (s *Server) applyReplica(n Name, e Entity, atRev uint64) {
	s.ctx.Bind(n, e)
	s.SetRevision(atRev)
}

// sneakBind mutates a binding and never bumps: the coherence hole.
func (s *Server) sneakBind(n Name, e Entity) {
	s.ctx.Bind(n, e) // want `sneakBind mutates a binding \(BasicContext\.Bind\) but never reaches a revision bump`
}

// sneakUnbind is the same hole through Unbind, on a wrapped context.
func (s *Server) sneakUnbind(w *UnionContext, n Name) {
	w.Unbind(n) // want `sneakUnbind mutates a binding \(UnionContext\.Unbind\) but never reaches a revision bump`
}

// renameBoth has two unbumped mutations; each is reported.
func renameBoth(c *BasicContext, from, to Name) {
	e := c.Lookup(from)
	c.Unbind(from) // want `renameBoth mutates a binding \(BasicContext\.Unbind\) but never reaches a revision bump`
	c.Bind(to, e)  // want `renameBoth mutates a binding \(BasicContext\.Bind\) but never reaches a revision bump`
}

// notAContext has Bind/Unbind but no Lookup/Names — not context-shaped,
// so mutating it carries no revision obligation.
type notAContext struct{}

func (notAContext) Bind(n Name, e Entity) {}
func (notAContext) Unbind(n Name)         {}

func unrelatedBind(x notAContext, n Name) {
	x.Bind(n, Entity{})
	x.Unbind(n)
}
