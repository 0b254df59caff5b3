// Write replication, primary-per-shard: every mutation a shard's primary
// commits is re-issued, in commit order, to each backup replica over the
// ordinary wire protocol (so it crosses the same faultnet injectors the
// read path does). Delivery is at-least-once with unbounded buffering —
// a backup that is down or partitioned accumulates a queue and converges
// when it heals — and the replica-side apply is idempotent and tagged
// with the primary's revision, so re-sends and recoveries converge
// instead of diverging. Writes during an outage therefore apply on the
// primary immediately and reach the backup eventually; nothing blocks
// the primary's write path beyond an in-memory enqueue.

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
// replicas. One goroutine per backup drains a private FIFO, so a slow or
// dead backup never delays the others — per-backup order is all the
// idempotent apply needs.
type replicator struct {
	shard int
	stopC chan struct{}
	// backups holds the one wire connection per backup: dialed outside any
	// lock, retired on a transport failure, and closed by close() so an
	// in-flight apply fails fast.
	backups *replicaSet
	feeds   []*backupFeed
	wg      sync.WaitGroup
}

// backupFeed is the mutation queue of one backup replica.
type backupFeed struct {
	backup int // index into the replicator's backups

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []nameserver.AppliedMutation
	applying bool // a mutation is popped but not yet acknowledged
	stopped  bool
	skipped  int // mutations the backup refused (divergence, counted not retried)
}

// newReplicator starts one applier goroutine per backup address. The
// returned replicator's enqueue is meant to be installed as the primary
// server's OnMutation hook.
func newReplicator(network string, shard int, backups []string, timeout time.Duration) *replicator {
	r := &replicator{
		shard:   shard,
		stopC:   make(chan struct{}),
		backups: newReplicaSet(network, backups, timeout),
	}
	for i := range backups {
		f := &backupFeed{backup: i}
		f.cond = sync.NewCond(&f.mu)
		r.feeds = append(r.feeds, f)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.apply(f)
		}()
	}
	return r
}

// enqueue appends one committed mutation to every backup's queue. It is
// called under the primary's write mutex (OnMutation), so queues receive
// mutations in commit order; it only appends to in-memory slices, never
// blocks, and never performs I/O.
func (r *replicator) enqueue(m nameserver.AppliedMutation) {
	for _, f := range r.feeds {
		f.mu.Lock()
		if !f.stopped {
			f.queue = append(f.queue, m)
			f.cond.Broadcast()
		}
		f.mu.Unlock()
	}
}

// apply is one backup's applier loop: peek the queue head, apply it over
// the wire, pop on success, retry after a pause on transport failure. The
// head stays queued until acknowledged, so a crash of the backup between
// apply and ack just causes an idempotent re-apply.
func (r *replicator) apply(f *backupFeed) {
	for {
		f.mu.Lock()
		for len(f.queue) == 0 && !f.stopped {
			f.cond.Wait()
		}
		if f.stopped {
			f.mu.Unlock()
			return
		}
		m := f.queue[0]
		f.applying = true
		f.mu.Unlock()

		ok, remote := r.applyOne(f, m)
		f.mu.Lock()
		if ok {
			f.queue = f.queue[1:]
			if remote {
				f.skipped++
			}
		}
		f.applying = false
		f.cond.Broadcast()
		f.mu.Unlock()
		if !ok {
			select {
			case <-r.stopC:
				return
			case <-time.After(replApplyBackoff):
			}
		}
	}
}

// applyOne performs one wire apply. ok reports whether the mutation is
// settled (applied, or definitively refused); remote marks the refused
// case. A transport failure retires the connection and reports !ok so the
// caller retries the same mutation against a fresh one.
func (r *replicator) applyOne(f *backupFeed, m nameserver.AppliedMutation) (ok, remote bool) {
	conn, err := r.backups.getReplica(f.backup)
	if err != nil {
		return false, false
	}
	_, err = conn.ReplicaApply(m)
	switch {
	case err == nil:
		return true, false
	case isRemote(err):
		// The backup answered and refused: re-sending cannot change its
		// mind. Count the divergence and move on so the queue stays live.
		return true, true
	default:
		r.backups.retire(conn)
		return false, false
	}
}

// drain blocks until every backup's queue is empty and no apply is in
// flight — the convergence point tests and experiments wait on after
// healing faults. Backups that cannot be reached keep drain waiting, so
// heal first. Returns immediately once the replicator is closed.
func (r *replicator) drain() {
	for _, f := range r.feeds {
		f.mu.Lock()
		for (len(f.queue) > 0 || f.applying) && !f.stopped {
			f.cond.Wait()
		}
		f.mu.Unlock()
	}
}

// pending reports how many mutations are queued or in flight across all
// backups.
func (r *replicator) pending() int {
	n := 0
	for _, f := range r.feeds {
		f.mu.Lock()
		n += len(f.queue)
		if f.applying {
			n++
		}
		f.mu.Unlock()
	}
	return n
}

// close stops every applier and joins them. Queued mutations that were
// not yet applied are dropped — close is cluster teardown, not a flush;
// call drain first when convergence matters.
func (r *replicator) close() {
	close(r.stopC)
	for _, f := range r.feeds {
		f.mu.Lock()
		f.stopped = true
		f.cond.Broadcast()
		f.mu.Unlock()
	}
	r.backups.close() // fail a blocked in-flight apply fast
	r.wg.Wait()
}
