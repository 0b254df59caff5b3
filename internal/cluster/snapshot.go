package cluster

import (
	"errors"
	"fmt"
	"time"

	"namecoherence/internal/cas"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
	"namecoherence/internal/treespec"
)

// Option configures cluster construction.
type Option interface {
	apply(*options)
}

type options struct {
	snap       *snapstore.Store
	every      time.Duration
	serverOpts []nameserver.ServerOption
	listenAddr string
}

type snapStoreOption struct {
	st    *snapstore.Store
	every time.Duration
}

func (o snapStoreOption) apply(opts *options) { opts.snap, opts.every = o.st, o.every }

// WithSnapStore backs the cluster with a content-addressed snapshot
// store. Shards whose manifest names a committed root are restored from
// it instead of rebuilt from the spec — the crash-recovery path — and
// additional replicas are brought up by hash-diff catch-up: each replica
// fetches into its own scratch CAS only the blobs it is missing, then
// restores from that. Shards with no committed root are built from the
// spec and their initial snapshot is committed at revision 0.
//
// The cluster then commits into st itself: every interval every, each
// shard whose primary's revision moved past its manifest entry (a zero or
// negative every runs no loop), and once more at Close.
func WithSnapStore(st *snapstore.Store, every time.Duration) Option {
	return snapStoreOption{st, every}
}

// CatchUpStat records one replica bring-up transfer: how many blobs were
// fetched and how many already-present subtrees were pruned.
type CatchUpStat struct {
	Shard, Replica  int
	Copied, Skipped int
}

// bringUpShard produces shard i's replica trees and, over a snap store, the
// encoder of the primary's: with no snap store (or on a fresh store with no
// committed root) the trees are built from the spec; with a committed root
// they are restored from the blob graph.
func (c *Cluster) bringUpShard(o *options, i int, shardSpec, label string, replicas int) ([]*dirtree.Tree, *snapstore.Encoder, error) {
	if o.snap == nil {
		trees, err := treespec.BuildReplicas(shardSpec, c.World, label, replicas)
		return trees, nil, err
	}
	last, ok := o.snap.Latest(i)
	if !ok {
		trees, err := treespec.BuildReplicas(shardSpec, c.World, label, replicas)
		if err != nil {
			return nil, nil, err
		}
		// The flush's encoder starts from this walk, so its first flush is not one.
		enc := o.snap.NewEncoder(c.World, trees[0].Root)
		root, err := enc.Snapshot(nil, true)
		if err != nil {
			return nil, nil, fmt.Errorf("initial snapshot of shard %d: %w", i, err)
		}
		if err := o.snap.Commit(i, 0, root); err != nil {
			return nil, nil, fmt.Errorf("commit shard %d: %w", i, err)
		}
		return trees, enc, nil
	}

	root, err := last.RootHash()
	if err != nil {
		return nil, nil, fmt.Errorf("shard %d manifest: %w", i, err)
	}
	trees := make([]*dirtree.Tree, replicas)
	for r := range trees {
		lbl := label
		if replicas > 1 {
			lbl = fmt.Sprintf("%s-r%d", label, r)
		}
		// The primary restores straight from the store; every further
		// replica first catches up a private CAS — fetching only blobs it
		// does not already hold — and restores from that, exactly the
		// transfer a remote replica would perform.
		src := o.snap
		if r > 0 {
			scratch := cas.NewMem()
			copied, skipped, err := o.snap.CatchUp(scratch, root)
			if err != nil {
				return nil, nil, fmt.Errorf("catch up shard %d replica %d: %w", i, r, err)
			}
			c.catchUps = append(c.catchUps, CatchUpStat{
				Shard: i, Replica: r, Copied: copied, Skipped: skipped,
			})
			src = snapstore.New(cas.NewStore(scratch))
		}
		tr, err := src.Restore(root, c.World, lbl)
		if err != nil {
			return nil, nil, fmt.Errorf("restore shard %d replica %d: %w", i, r, err)
		}
		trees[r] = tr
	}
	if replicas > 1 {
		if err := treespec.GroupReplicas(c.World, trees); err != nil {
			return nil, nil, fmt.Errorf("group restored replicas of shard %d: %w", i, err)
		}
	}
	c.recovered = append(c.recovered, recoveredShard{shard: i, rev: last.Rev})
	// SetRevision's coarse log entry makes this encoder's first snapshot
	// the walk that seeds it.
	return trees, o.snap.NewEncoder(c.World, trees[0].Root), nil
}

// recoveredShard records that a shard was restored from a snapshot
// committed at the given revision (so its servers resume there).
type recoveredShard struct {
	shard int
	rev   uint64
}

// CatchUps returns the replica bring-up transfers performed during
// construction — empty unless the cluster was built over a snap store
// with committed roots and more than one replica per shard.
func (c *Cluster) CatchUps() []CatchUpStat {
	return append([]CatchUpStat(nil), c.catchUps...)
}

// Recovered reports whether shard i was restored from a committed
// snapshot, and at which revision.
func (c *Cluster) Recovered(i int) (rev uint64, ok bool) {
	for _, r := range c.recovered {
		if r.shard == i {
			return r.rev, true
		}
	}
	return 0, false
}

// snapCursor is where one shard's snapshots stand: the memo-keeping encoder
// that took the last one, and the position in the primary's commit log it
// covered. What the log says changed since — some directories, or
// everything — is what the next flush re-encodes.
type snapCursor struct {
	enc *snapstore.Encoder
	pos uint64
}

// startFlushLoop flushes every interval until Close.
func (c *Cluster) startFlushLoop(every time.Duration) {
	c.stop = make(chan struct{})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				_ = c.flush() // a failed write is retried at the next tick
			}
		}
	}()
}

// flush commits every shard whose primary's revision is not the one its
// manifest entry names; a recovered shard, restored at that very revision,
// starts caught up. The encode runs under the primary's write lock
// (Server.Stable): no wire mutation lands between reading the revision and
// walking the tree, so the committed snapshot is exactly the state at that
// revision. A manifest commit that fails behind a good encode is retried
// from a memo already right. Errors from individual shards are joined; the
// other shards still flush.
func (c *Cluster) flush() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	var errs []error
	for i := range c.cursors {
		srv, cur := c.Server(i), &c.cursors[i]
		if last, ok := c.snap.Latest(i); ok && last.Rev == srv.Revision() {
			continue
		}
		var root cas.Hash
		var rev uint64
		var err error
		srv.Stable(func() {
			rev = srv.Revision()
			dirs, head, all := srv.ChangedSince(cur.pos)
			if root, err = cur.enc.Snapshot(dirs, all); err == nil {
				cur.pos = head
			}
		})
		if err == nil {
			err = c.snap.Commit(i, rev, root)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ShardRoot snapshots the current state of one replica's subtree into st
// and returns its root hash. Replicas of one shard hold structurally
// identical subtrees, so their roots hash identically — weak coherence
// made checkable with one comparison.
func (c *Cluster) ShardRoot(st *snapstore.Store, i, r int) (cas.Hash, error) {
	return st.Snapshot(c.World, c.ReplicaTrees[i][r].Root)
}
