// Write replication, primary-per-shard: every mutation a shard's primary
// commits is re-issued, in commit order, to each backup replica over the
// ordinary wire protocol (so it crosses the same faultnet injectors the
// read path does). Each backup's applier is a pinned cursor on the
// primary's commit log (nameserver.Follower), which keeps its tail down to
// the slowest of them, once for the shard: a backup that is down or
// partitioned falls behind without bound, blocks nothing on the primary,
// and converges when it heals. Delivery is at-least-once; the replica-side
// apply is idempotent and tagged with the primary's revision, so re-sends
// and recoveries converge instead of diverging.

package cluster

import (
	"sync"
	"time"

	"namecoherence/internal/nameserver"
)

// replApplyBackoff is the pause between re-dial/re-apply attempts against
// an unreachable backup. Short: faultnet tests heal in milliseconds, and
// a real outage pays one failed dial per tick, not a hot loop.
const replApplyBackoff = 5 * time.Millisecond

// replicator fans one shard's committed mutations out to its backup
// replicas. One goroutine per backup advances that backup's own cursor, so
// a slow or dead backup never delays the others — per-backup order is all
// the idempotent apply needs.
type replicator struct {
	// backups holds the one wire connection per backup: dialed outside any
	// lock, retired on a transport failure, and closed by close() so an
	// in-flight apply fails fast.
	backups *replicaSet
	feeds   []*nameserver.Follower // feeds[i] is backup i's cursor on the primary's log
	wg      sync.WaitGroup
}

// newReplicator pins one cursor per backup address on the primary's log
// and starts its applier goroutine.
func newReplicator(primary *nameserver.Server, backups []string) *replicator {
	r := &replicator{backups: newReplicaSet("tcp", backups, defaultTimeout)}
	for i := range backups {
		f := primary.Follow()
		r.feeds = append(r.feeds, f)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.apply(i, f)
		}()
	}
	return r
}

// apply is one backup's applier loop: read the mutation at the cursor,
// apply it over the wire, advance once the backup has answered, retry
// against a fresh connection after a pause on a transport failure. The
// cursor stays on the mutation until it is acknowledged, so a crash of the
// backup between apply and ack just causes an idempotent re-apply. A backup
// that answers with a refusal will not change its mind on a re-send: the
// cursor counts the divergence and moves on.
func (r *replicator) apply(backup int, f *nameserver.Follower) {
	for m, ok := f.Next(); ok; m, ok = f.Next() { // !ok: the cursor or the primary closed
		conn, err := r.backups.getReplica(backup)
		if err == nil {
			if _, err = conn.ReplicaApply(m); r.backups.settle(conn, err) {
				f.Advance(err != nil)
				continue
			}
		}
		time.Sleep(replApplyBackoff)
	}
}

// close stops every applier and joins them, unpinning their cursors.
// Mutations not yet applied are dropped — close is cluster teardown, not a
// flush; call Cluster.DrainReplication first when convergence matters.
func (r *replicator) close() {
	for _, f := range r.feeds {
		f.Close()
	}
	r.backups.close() // fail a blocked in-flight apply fast
	r.wg.Wait()
}
