// Package nameserver reproduces the shape of the revision hole mutbump was
// written for — a wire write that changes a binding and replies without a
// revision advance, so every coherent cache keeps the old binding with no
// way to find out — beside the form the write path was fixed to. The buggy
// mutations must keep firing and the fixed form must stay silent. (The
// directory is named nameserver so the package path lands in the
// analyzer's scope.)
package nameserver

// Name and Entity stand in for the core types.
type Name string
type Entity struct{ ID uint64 }

// Context is a directory: context-shaped, so its Bind and Unbind are the
// mutations the analyzer guards.
type Context struct {
	m       map[Name]Entity
	watched bool // a change hook bumps the revision
}

func (c *Context) Lookup(n Name) Entity  { return c.m[n] }
func (c *Context) Bind(n Name, e Entity) { c.m[n] = e }
func (c *Context) Unbind(n Name)         { delete(c.m, n) }
func (c *Context) Names() []Name         { return nil }

// Server owns the revision a write's reply carries.
type Server struct {
	rev  uint64
	dirs map[string]*Context
}

// Bump advances the revision.
//
//namingvet:revbump
func (s *Server) Bump() { s.rev++ }

// mutation is one wire write.
type mutation struct {
	bind   bool
	dir    string
	name   Name
	target Entity
}

// applyMutationTrustingWatch is the write path before its discipline: it
// counts on the directory's change hook to bump, but a directory made
// through the wire after the export was watched had no hook, so a write
// inside it replied at an unchanged revision.
func (s *Server) applyMutationTrustingWatch(m mutation) uint64 {
	ctx := s.dirs[m.dir]
	if m.bind {
		ctx.Bind(m.name, m.target) // want `applyMutationTrustingWatch mutates a binding \(Context\.Bind\) but never reaches a revision bump`
	} else {
		ctx.Unbind(m.name) // want `applyMutationTrustingWatch mutates a binding \(Context\.Unbind\) but never reaches a revision bump`
	}
	return s.rev
}

// applyMutation is the fixed write path: an unwatched directory bumps
// explicitly, so every applied mutation reaches a bump before the reply.
func (s *Server) applyMutation(m mutation) uint64 {
	ctx := s.dirs[m.dir]
	if m.bind {
		ctx.Bind(m.name, m.target)
	} else {
		ctx.Unbind(m.name)
	}
	if !ctx.watched {
		s.Bump()
	}
	return s.rev
}
