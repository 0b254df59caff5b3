// Client-side write path and push-invalidation subscription. Mutations
// are ordinary tagged calls on the multiplexed stream; subscribing
// additionally starts a standing reader, because push frames arrive
// unsolicited and a cache-hit-heavy caller may otherwise not decode the
// wire for long stretches.

package nameserver

import (
	"errors"
	"fmt"
	"time"

	"namecoherence/internal/core"
)

// Bind binds name in the server directory at dir (empty: the export
// root) to target, an entity previously resolved over this protocol.
// Returns the revision the bind committed at.
func (c *Client) Bind(dir core.Path, name core.Name, target core.Entity) (uint64, error) {
	req, err := mutationRequest(OpBind, dir, name)
	if err != nil {
		return 0, err
	}
	req.Target = uint64(target.ID)
	req.TargetKind = uint8(target.Kind)
	return c.mutate(req)
}

// Unbind removes the binding for name in the server directory at dir.
// Returns the revision the unbind committed at.
func (c *Client) Unbind(dir core.Path, name core.Name) (uint64, error) {
	req, err := mutationRequest(OpUnbind, dir, name)
	if err != nil {
		return 0, err
	}
	return c.mutate(req)
}

// Mkcontext creates a directory bound as name under the server directory
// at dir, returning the created entity and its commit revision.
func (c *Client) Mkcontext(dir core.Path, name core.Name) (core.Entity, uint64, error) {
	req, err := mutationRequest(OpMkcontext, dir, name)
	if err != nil {
		return core.Undefined, 0, err
	}
	resp, err := c.call(req)
	if err != nil {
		return core.Undefined, 0, err
	}
	if resp.Err != "" {
		return core.Undefined, resp.Rev, &RemoteError{Msg: resp.Err}
	}
	return core.Entity{ID: core.EntityID(resp.Ent), Kind: core.Kind(resp.Kind)}, resp.Rev, nil
}

// ReplicaApply re-issues a mutation the primary committed, tagged with
// the primary's revision so the replica adopts it instead of minting its
// own. Applies are idempotent on the replica: re-sending after a lost
// response converges rather than erroring, which is what an at-least-once
// replicator needs. Returns the replica's revision after the apply.
func (c *Client) ReplicaApply(am AppliedMutation) (uint64, error) {
	m := am.m
	req, err := mutationRequest(m.op, m.dir, m.name)
	if err != nil {
		return 0, err
	}
	req.Target = uint64(m.target.ID)
	req.TargetKind = uint8(m.target.Kind)
	req.AtRev = m.atRev
	req.Twin = uint64(m.twin)
	return c.mutate(req)
}

// mutationRequest validates the directory path and binding name
// client-side (§6: a name is converted to canonical form before it is
// embedded in a message) and builds the wire request.
func mutationRequest(op uint8, dir core.Path, name core.Name) (request, error) {
	var raw []string
	if len(dir) > 0 {
		var err error
		raw, err = CanonicalWirePath(dir)
		if err != nil {
			return request{}, err
		}
	}
	if err := checkWireCanonical(core.Path{name}); err != nil {
		return request{}, fmt.Errorf("binding name %q: %w", string(name), ErrNotCanonical)
	}
	return request{Op: op, Path: raw, Name: string(name)}, nil
}

// mutate runs one mutation round-trip. Even a refused mutation's reply
// carries the revision the server answered at.
func (c *Client) mutate(req request) (uint64, error) {
	resp, err := c.call(req)
	if err != nil {
		return 0, err
	}
	if resp.Err != "" {
		return resp.Rev, &RemoteError{Msg: resp.Err}
	}
	return resp.Rev, nil
}

// Invalidation is one consumed push frame: the server committed revision
// Rev. When Dir is non-zero the commit bound or unbound Name in the
// directory the server numbers Dir, and neither target was a directory —
// so of everything resolved before it, only answers whose final component
// was looked up as (Dir, Name), or in a directory the server could not
// name (ResolveRev's dir 0), can differ now. A zero Dir names no binding:
// anything may have changed.
type Invalidation struct {
	Rev  uint64
	Dir  core.EntityID
	Name core.Name
}

// Subscribe asks the server for one unsolicited frame per revision
// advance. The client only counts and reports them (see Invalidations);
// acting on a frame — purging what it invalidates — belongs to the cluster
// client's cache, which hooks in through SubscribeFrames.
//
// onInval, if non-nil, is called after each consumed frame with the
// pushed revision. It runs on whichever goroutine decoded the frame and
// must not call back into this client.
//
// Subscribing starts one standing reader goroutine — the only goroutine
// this otherwise caller-driven client ever runs — which Close joins.
func (c *Client) Subscribe(onInval func(rev uint64)) error {
	var onFrame func(Invalidation)
	if onInval != nil {
		onFrame = func(iv Invalidation) { onInval(iv.Rev) }
	}
	_, err := c.SubscribeFrames(onFrame)
	return err
}

// SubscribeFrames is Subscribe with everything a frame says handed to the
// callback (cluster clients hook their per-binding purge in here), and the
// revision the subscription starts from returned: every commit above it
// arrives as a frame, in commit order, and on this connection no response
// overtakes the frame of a commit its revision covers.
func (c *Client) SubscribeFrames(onFrame func(Invalidation)) (uint64, error) {
	c.mu.Lock()
	if c.subscribed {
		c.mu.Unlock()
		return 0, errors.New("nameserver: already subscribed")
	}
	c.subscribed = true
	c.onInval = onFrame
	c.mu.Unlock()

	resp, err := c.call(request{Subscribe: true})
	if err != nil {
		return 0, err
	}

	c.readerWG.Add(1)
	go func() {
		defer c.readerWG.Done()
		c.readLoop()
	}()
	return resp.Rev, nil
}

// readLoop is the standing reader of a subscribed client: it claims the
// read token permanently and leads on behalf of a call that never
// completes, so push frames are decoded promptly no matter how quiet the
// callers are. Ordinary calls still complete — the loop dispatches their
// responses like any leader, and callers park on their done channels.
// The loop exits when the stream dies (lead's error path); Close closes
// the conn to force exactly that, then joins via readerWG.
func (c *Client) readLoop() {
	c.rtoken <- struct{}{}
	// This goroutine reads for everyone from now on, and an idle stretch
	// is normal for it — drop whatever per-call read deadline an earlier
	// leader left armed. Per-call timeouts remain bounded by their timers
	// (see expire).
	_ = c.conn.SetReadDeadline(time.Time{})
	never := &pendingCall{done: make(chan struct{})}
	c.lead(never, time.Time{})
	<-c.rtoken
}
