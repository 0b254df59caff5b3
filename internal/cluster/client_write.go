// Cluster client write path and push invalidation. Writes are routed by
// the name being written (its first component picks the shard, exactly as
// resolution would route it) and go to the shard's primary replica only —
// primary-per-shard is the write rule; backups receive the mutation from
// the primary's replicator, not from clients. A write is one attempt with
// no failover: retrying a non-idempotent mutation after a lost response
// could double-apply, so an unreachable primary fails cleanly instead.

package cluster

import (
	"errors"
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
)

type pushOption struct{}

func (pushOption) apply(c *Client) { c.push = true }

// WithPushInvalidation subscribes every shared connection for server-push
// invalidation frames: each of a shard's commits reaches the client as an
// unsolicited frame that says which binding it changed, and purges the
// cache entries that binding could have answered — immediately, instead of
// the shard's every entry at the next cache miss. The cache goes from
// poll-validated to push-invalidated; staleness after a write shrinks from
// "until my next round-trip to that shard" to one frame's flight time, and
// a write costs the reader the names it rebound, not the shard.
func WithPushInvalidation() ClientOption {
	return pushOption{}
}

// subscription is the purge rule's view of one subscribed connection.
// Guarded by Client.mu.
type subscription struct {
	replica int
	// based is set once the subscription's ack has re-based the shard (see
	// maybeSubscribe). Frames consumed before that — the reader can run
	// ahead of the subscribing goroutine — purge the shard, and early keeps
	// the newest of their revisions for the re-base to start from.
	based bool
	early uint64
}

// maybeSubscribe runs on each freshly installed shared connection (the
// replicaSet's onDial hook, outside any lock). A new connection — first
// dial, re-dial, failover to a backup — is a new history: nothing says its
// server's revisions continue the last one's (a shard restarted from a
// snapshot resumes below what a surviving client has seen). So the shard's
// entries go, once, and revs restarts from the subscription's ack; from
// then on the connection's frames carry it forward one commit at a time. A
// subscription failure is not fatal: the connection still resolves, revs
// restarts from zero, and every response's revision purges as it would
// polling.
func (c *Client) maybeSubscribe(shard int, conn *sharedConn) {
	c.mu.Lock()
	push := c.push
	c.mu.Unlock()
	if !push {
		return
	}
	sub := &subscription{replica: conn.replica}
	ack, _ := conn.SubscribeFrames(func(iv nameserver.Invalidation) { c.pushed(shard, sub, iv) })
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cache != nil {
		c.purgeShard(shard)
		c.revs[shard] = max(ack, sub.early)
	}
	sub.based = true
}

// pushed consumes one invalidation frame. A frame that names its binding
// and is the very next commit after the one the cache is current to
// removes the entries that binding can have answered, and nothing else.
// Everything short of that falls back to purging the shard: a frame that
// names nothing (a directory came or went, the server lost count of a slow
// subscriber, a revision jump), and a gap — frames skipped, so commits
// whose bindings nobody named. A frame at or below revs[shard] is old
// news, from a backup trailing the primary whose frames the cache already
// followed: every entry was admitted at a revision that covers it.
func (c *Client) pushed(shard int, sub *subscription, iv nameserver.Invalidation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations++
	if c.cache == nil {
		return
	}
	switch {
	case !sub.based:
		sub.early = iv.Rev
		c.purgeShard(shard)
	case iv.Rev <= c.revs[shard]:
	case iv.Dir != 0 && iv.Rev == c.revs[shard]+1:
		c.purgeBinding(shard, sub.replica, iv.Dir, iv.Name)
		c.revs[shard] = iv.Rev
	default:
		c.purgeShard(shard)
		c.revs[shard] = iv.Rev
	}
}

// Invalidations returns how many pushed invalidation frames this client
// has consumed across all connections (0 without WithPushInvalidation).
func (c *Client) Invalidations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invalidations
}

// Bind binds name in the cluster directory at dir to target. The write
// goes to the primary of the shard that serves (and will resolve) the
// resulting name.
func (c *Client) Bind(dir core.Path, name core.Name, target core.Entity) error {
	shard, conn, err := c.writeConn(dir, name)
	if err != nil {
		return err
	}
	rev, err := conn.Bind(dir, name, target)
	return c.writeDone(shard, conn, rev, err)
}

// Unbind removes the binding for name in the cluster directory at dir.
func (c *Client) Unbind(dir core.Path, name core.Name) error {
	shard, conn, err := c.writeConn(dir, name)
	if err != nil {
		return err
	}
	rev, err := conn.Unbind(dir, name)
	return c.writeDone(shard, conn, rev, err)
}

// Mkcontext creates a directory bound as name under the cluster directory
// at dir and returns the created entity.
func (c *Client) Mkcontext(dir core.Path, name core.Name) (core.Entity, error) {
	shard, conn, err := c.writeConn(dir, name)
	if err != nil {
		return core.Undefined, err
	}
	e, rev, err := conn.Mkcontext(dir, name)
	if err := c.writeDone(shard, conn, rev, err); err != nil {
		return core.Undefined, err
	}
	return e, nil
}

// writeConn routes a write to its shard's primary connection. The shard
// is chosen by the full path of the binding being written — dir plus
// name — so the mutation lands on the server that resolves it.
func (c *Client) writeConn(dir core.Path, name core.Name) (int, *sharedConn, error) {
	full := make(core.Path, 0, len(dir)+1)
	full = append(append(full, dir...), name)
	// A non-canonical name fails here, before the dial: the wire client
	// re-canonicalizes, but routing a bad name would burn a connection.
	if _, err := nameserver.CanonicalWirePath(full); err != nil {
		return 0, nil, err
	}
	shard := c.routes.ShardFor(full)
	conn, err := c.shards[shard].getReplica(0)
	if err != nil {
		if errors.Is(err, ErrClientClosed) {
			return shard, nil, err
		}
		return shard, nil, fmt.Errorf("shard %d primary: %w", shard, err)
	}
	return shard, conn, nil
}

// writeDone settles one write attempt: the reply's revision feeds the
// purge rule (a remote refusal still answered at a revision), and a
// transport failure retires the poisoned primary connection and fails the
// write cleanly — no retry, no failover to a backup.
func (c *Client) writeDone(shard int, conn *sharedConn, rev uint64, err error) error {
	c.mu.Lock()
	c.noteRevision(shard, rev, err)
	c.mu.Unlock()
	if err == nil {
		c.shards[shard].ok(conn.replica)
		return nil
	}
	if isRemote(err) {
		return err
	}
	c.shards[shard].retire(conn)
	c.noteFailover()
	return fmt.Errorf("shard %d primary: %w", shard, err)
}
