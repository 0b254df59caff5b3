package cluster

import (
	"fmt"

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
	serverOpts []nameserver.ServerOption
	listenAddr string
}

type snapStoreOption struct{ st *snapstore.Store }

func (o snapStoreOption) apply(opts *options) { opts.snap = o.st }

// WithSnapStore backs the cluster with a content-addressed snapshot
// store. Shards whose manifest names a committed root are restored from
// it instead of rebuilt from the spec — the crash-recovery path — and
// additional replicas are brought up by hash-diff catch-up: each replica
// fetches into its own scratch CAS only the blobs it is missing, then
// restores from that. Shards with no committed root are built from the
// spec and their initial snapshot is committed at revision 0.
func WithSnapStore(st *snapstore.Store) Option {
	return snapStoreOption{st}
}

// CatchUpStat records one replica bring-up transfer: how many blobs were
// fetched and how many already-present subtrees were pruned.
type CatchUpStat struct {
	Shard, Replica  int
	Copied, Skipped int
}

// bringUpShard produces shard i's replica trees. With no snap store (or
// on a fresh store with no committed root) the trees are built from the
// spec; with a committed root they are restored from the blob graph.
func (c *Cluster) bringUpShard(o *options, i int, shardSpec, label string, replicas int) ([]*dirtree.Tree, error) {
	if o.snap == nil {
		return treespec.BuildReplicas(shardSpec, c.World, label, replicas)
	}
	last, ok := o.snap.Latest(i)
	if !ok {
		trees, err := treespec.BuildReplicas(shardSpec, c.World, label, replicas)
		if err != nil {
			return nil, err
		}
		// Track's encoder starts from this walk, so its first flush is not one.
		c.encoders[i] = o.snap.NewEncoder(c.World, trees[0].Root)
		root, err := c.encoders[i].Snapshot(nil, true)
		if err != nil {
			return nil, fmt.Errorf("initial snapshot of shard %d: %w", i, err)
		}
		if err := o.snap.Commit(i, 0, root); err != nil {
			return nil, fmt.Errorf("commit shard %d: %w", i, err)
		}
		return trees, nil
	}

	root, err := last.RootHash()
	if err != nil {
		return nil, fmt.Errorf("shard %d manifest: %w", i, err)
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
				return nil, fmt.Errorf("catch up shard %d replica %d: %w", i, r, err)
			}
			c.catchUps = append(c.catchUps, CatchUpStat{
				Shard: i, Replica: r, Copied: copied, Skipped: skipped,
			})
			src = snapstore.New(cas.NewStore(scratch))
		}
		tr, err := src.Restore(root, c.World, lbl)
		if err != nil {
			return nil, fmt.Errorf("restore shard %d replica %d: %w", i, r, err)
		}
		trees[r] = tr
	}
	if replicas > 1 {
		if err := treespec.GroupReplicas(c.World, trees); err != nil {
			return nil, fmt.Errorf("group restored replicas of shard %d: %w", i, err)
		}
	}
	c.recovered = append(c.recovered, recoveredShard{shard: i, rev: last.Rev})
	return trees, nil
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

// Track registers every shard's primary with k, snapshotting into k's
// store. The snap runs under the primary's write lock (Server.Stable): a
// wire mutation can not land between reading the revision and walking the
// tree, so the committed snapshot is exactly the state at that revision.
// It joins a position in the primary's commit log to a memo-keeping
// encoder: what the log says changed since the last snapshot that stored
// all its blobs — some directories, or everything — is what is re-encoded.
// A manifest commit that fails behind a good encode is retried from a memo
// already right. The encoder is the bring-up snapshot's when there was one.
func (c *Cluster) Track(k *snapstore.Keeper) {
	for i := range c.Trees {
		srv := c.Server(i)
		enc := c.encoders[i]
		if enc == nil || c.snap != k.Store() {
			enc = k.Store().NewEncoder(c.World, c.Trees[i].Root)
		}
		var pos uint64 // guarded by the keeper: it serialises its flushes
		k.Track(i, srv.Revision, func() (h cas.Hash, rev uint64, err error) {
			srv.Stable(func() {
				rev = srv.Revision()
				dirs, head, all := srv.ChangedSince(pos)
				if h, err = enc.Snapshot(dirs, all); err == nil {
					pos = head
				}
			})
			return h, rev, err
		})
	}
}

// ShardRoot snapshots the current state of one replica's subtree into st
// and returns its root hash. Replicas of one shard hold structurally
// identical subtrees, so their roots hash identically — weak coherence
// made checkable with one comparison.
func (c *Cluster) ShardRoot(st *snapstore.Store, i, r int) (cas.Hash, error) {
	return st.Snapshot(c.World, c.ReplicaTrees[i][r].Root)
}
