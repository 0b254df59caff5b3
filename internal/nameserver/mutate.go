// The server's write path. Every mutation — local or from the wire —
// funnels through applyMutation, which runs under the write mutex (wmu),
// keeps the revision discipline (every applied mutation reaches a Bump
// before the reply is written), stages what a follower of the commit log
// must re-apply, and extends the export watch over directories the
// mutation creates. Replicated applies (AtRev tagged)
// re-play a primary's committed mutation idempotently and adopt its
// revision instead of minting their own.

package nameserver

import (
	"errors"
	"fmt"

	"namecoherence/internal/core"
)

// ErrReadOnly reports a mutation refused by a WithReadOnly server.
var ErrReadOnly = errors.New("server is read-only")

// mutation is the internal, validated form of one write.
type mutation struct {
	op     uint8
	dir    core.Path
	name   core.Name
	target core.Entity
	atRev  uint64        // non-zero: replicated apply at this primary revision
	twin   core.EntityID // replicated mkcontext: the primary's created directory
}

// Bind binds name in the directory at dir (empty: the export root) to
// target, which must already exist. Binding over an existing name is an
// error — unbind first; explicit is cheaper than diagnosing a silent
// clobber across a cluster. Returns the revision the bind committed at.
func (s *Server) Bind(dir core.Path, name core.Name, target core.Entity) (uint64, error) {
	_, rev, err := s.applyMutation(mutation{op: OpBind, dir: dir, name: name, target: target})
	return rev, err
}

// Unbind removes the binding for name in the directory at dir. Returns
// the revision the unbind committed at.
func (s *Server) Unbind(dir core.Path, name core.Name) (uint64, error) {
	_, rev, err := s.applyMutation(mutation{op: OpUnbind, dir: dir, name: name})
	return rev, err
}

// applyMutation validates and applies one mutation under the write mutex.
// It returns the created entity (mkcontext only) and the revision the
// mutation committed at.
func (s *Server) applyMutation(m mutation) (core.Entity, uint64, error) {
	if s.readonly {
		return core.Undefined, 0, ErrReadOnly
	}
	if len(m.dir) > 0 {
		if err := checkWireCanonical(m.dir); err != nil {
			return core.Undefined, 0, err
		}
	}
	if err := checkWireCanonical(core.Path{m.name}); err != nil {
		return core.Undefined, 0, fmt.Errorf("name %q: %w", string(m.name), ErrNotCanonical)
	}

	s.wmu.Lock()
	defer s.wmu.Unlock()

	ctx, err := s.mutationContext(m.dir)
	if err != nil {
		return core.Undefined, 0, err
	}
	// A watched directory bumps the revision from its change hook; an
	// unwatched one (server without WatchExport) needs an explicit Bump so
	// the discipline holds either way.
	watched := core.IsWatched(ctx)
	replica := m.atRev > 0

	var created core.Entity
	mutated := true
	switch m.op {
	case OpBind:
		if !s.world.Exists(m.target) {
			return core.Undefined, 0, fmt.Errorf("bind %q: target %v: %w",
				string(m.name), m.target, core.ErrUnknownEntity)
		}
		if cur := ctx.Lookup(m.name); !cur.IsUndefined() {
			if !replica || cur != m.target {
				return core.Undefined, 0, fmt.Errorf("bind %q: already bound to %v", string(m.name), cur)
			}
			mutated = false // replicated re-apply: already converged
		} else {
			s.log.stage(m)
			ctx.Bind(m.name, m.target)
		}
	case OpUnbind:
		if cur := ctx.Lookup(m.name); cur.IsUndefined() {
			if !replica {
				return core.Undefined, 0, fmt.Errorf("unbind %q: not bound", string(m.name))
			}
			mutated = false // replicated re-apply: already converged
		} else {
			s.log.stage(m)
			ctx.Unbind(m.name)
		}
	case OpMkcontext:
		if cur := ctx.Lookup(m.name); !cur.IsUndefined() {
			if !replica || !s.world.IsContextObject(cur) {
				return core.Undefined, 0, fmt.Errorf("mkcontext %q: already bound to %v", string(m.name), cur)
			}
			created, mutated = cur, false // replicated re-apply: already converged
		} else {
			dirE, dirCtx := s.world.NewContextObject(string(m.name))
			if watched {
				// Watch the new directory before it becomes reachable, so
				// there is no window in which a bind inside it could skip
				// the revision bump.
				dirCtx.SetWatch(dirE, s.exportWatch)
			}
			created = dirE
			if replica {
				s.joinTwinGroup(m.twin, created)
			} else {
				// Primary: open the replica group before the bind's log entry
				// can replicate the mutation, so backup appliers always find
				// it — under the twin they will be told to join.
				_, _ = s.world.NewReplicaGroup(created)
				m.twin = created.ID
			}
			s.log.stage(m)
			ctx.Bind(m.name, dirE)
		}
	default:
		return core.Undefined, 0, fmt.Errorf("unknown mutation opcode %d", m.op)
	}

	if mutated && !watched {
		s.Bump()
	}
	if replica {
		// Adopt the primary's revision tag (monotonically). With both
		// sides bumping once per mutation the tags track exactly; after a
		// divergence (lost frames, recovery) this is what re-converges the
		// replica's revision with the primary's.
		s.SetRevision(m.atRev)
	}
	return created, s.Revision(), nil
}

// mutationContext resolves the directory a mutation applies to. The
// empty path means the export root itself.
func (s *Server) mutationContext(dir core.Path) (core.Context, error) {
	if len(dir) == 0 {
		return s.export, nil
	}
	e, err := s.world.Resolve(s.export, dir)
	if err != nil {
		return nil, err
	}
	ctx, ok := s.world.ContextOf(e)
	if !ok {
		return nil, fmt.Errorf("%q: not a directory", dir.String())
	}
	return ctx, nil
}

// joinTwinGroup registers a replica-created directory in the replica
// group of the primary's twin directory, so weak coherence (§5) holds
// across the write path: resolving the new name on any replica yields
// "the same replicated object". Falls back to opening a fresh group when
// the twin is unknown (cross-process deployment without a shared world).
func (s *Server) joinTwinGroup(twin core.EntityID, created core.Entity) {
	if twin == 0 {
		return
	}
	primary := core.Entity{ID: twin, Kind: core.KindObject}
	if g, ok := s.world.ReplicaGroup(primary); ok {
		_ = s.world.AddReplica(g, created)
		return
	}
	if _, err := s.world.NewReplicaGroup(primary, created); err != nil {
		_, _ = s.world.NewReplicaGroup(created)
	}
}

// handleMutation serves one wire mutation request. Mutations allocate per
// write by design — a fresh path for the mutation record, error text on
// refusal — so the whole body sits outside the read path's allocfree
// discipline until write batching gives it a steady state worth guarding.
//
//namingvet:allocfree-exempt -- writes allocate per mutation by design; only the resolve path is steady
func (s *Server) handleMutation(req *request) response {
	p := make(core.Path, len(req.Path))
	for i, c := range req.Path {
		p[i] = core.Name(c)
	}
	m := mutation{
		op:     req.Op,
		dir:    p,
		name:   core.Name(req.Name),
		target: core.Entity{ID: core.EntityID(req.Target), Kind: core.Kind(req.TargetKind)},
		atRev:  req.AtRev,
		twin:   core.EntityID(req.Twin),
	}
	created, rev, err := s.applyMutation(m)
	if err != nil {
		return response{Err: err.Error()}
	}
	return response{Ent: uint64(created.ID), Kind: uint8(created.Kind), Rev: rev}
}
