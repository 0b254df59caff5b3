package snapstore

import (
	"errors"
	"sync"
	"time"

	"namecoherence/internal/cas"
)

// Keeper drives periodic snapshots: every interval it asks each tracked
// shard whether its revision moved and, if so, captures a snapshot and
// commits it to the manifest. Close stops the loop and takes one final
// snapshot of everything that changed, so a graceful shutdown always
// leaves the latest revision recoverable.
type Keeper struct {
	st       *Store
	interval time.Duration

	// flushMu serialises Flush — the periodic loop, callers and Close —
	// and so guards every trackedShard's lastRev/hasLast once tracked.
	flushMu sync.Mutex

	mu      sync.Mutex
	tracked []*trackedShard
	stop    chan struct{}
	done    chan struct{}
	started bool
	closed  bool
}

// trackedShard is one shard under the keeper's care. rev is a cheap probe
// for "did anything change"; snap captures a consistent snapshot and
// reports the revision it captured — the caller supplies both so snapshot
// consistency is decided by whoever owns the shard's locking.
type trackedShard struct {
	shard   int
	rev     func() uint64
	snap    func() (cas.Hash, uint64, error)
	lastRev uint64
	hasLast bool
}

// NewKeeper returns a keeper committing into st every interval once
// Start is called. A non-positive interval disables the periodic loop —
// Flush and the final snapshot at Close still work.
func NewKeeper(st *Store, interval time.Duration) *Keeper {
	return &Keeper{
		st:       st,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Store returns the snapshot store the keeper commits into.
func (k *Keeper) Store() *Store { return k.st }

// Track registers a shard. rev must be cheap; snap must capture a
// snapshot consistent with the revision it returns (typically by running
// under the same lock that serializes binding changes). If the store's
// manifest already has this shard at the current revision — the restart
// path, where the world was just restored from that very snapshot — the
// keeper starts caught-up and will not rewrite it.
func (k *Keeper) Track(shard int, rev func() uint64, snap func() (cas.Hash, uint64, error)) {
	t := &trackedShard{shard: shard, rev: rev, snap: snap}
	if last, ok := k.st.Latest(shard); ok && last.Rev == rev() {
		t.lastRev, t.hasLast = last.Rev, true
	}
	k.mu.Lock()
	k.tracked = append(k.tracked, t)
	k.mu.Unlock()
}

// Start launches the periodic snapshot loop. Calling it again is a no-op.
func (k *Keeper) Start() {
	k.mu.Lock()
	if k.started || k.closed {
		k.mu.Unlock()
		return
	}
	k.started = true
	k.mu.Unlock()
	if k.interval <= 0 {
		close(k.done)
		return
	}
	go func() {
		defer close(k.done)
		ticker := time.NewTicker(k.interval)
		defer ticker.Stop()
		for {
			select {
			case <-k.stop:
				return
			case <-ticker.C:
				_ = k.Flush() // transient write errors retry next tick
			}
		}
	}()
}

// Flush snapshots and commits every tracked shard whose revision moved
// since its last commit. Errors from individual shards are joined; the
// remaining shards still flush. Safe to call beside the periodic loop.
func (k *Keeper) Flush() error {
	k.flushMu.Lock()
	defer k.flushMu.Unlock()
	k.mu.Lock()
	tracked := append([]*trackedShard(nil), k.tracked...)
	k.mu.Unlock()
	var errs []error
	for _, t := range tracked {
		if t.hasLast && t.rev() == t.lastRev {
			continue
		}
		root, rev, err := t.snap()
		if err == nil {
			err = k.st.Commit(t.shard, rev, root)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		t.lastRev, t.hasLast = rev, true
	}
	return errors.Join(errs...)
}

// Close stops the periodic loop, waits for it, and takes a final flush so
// the manifest names the shard's last revision. Safe to call more than
// once; only the first call flushes.
func (k *Keeper) Close() error {
	k.mu.Lock()
	if k.closed {
		started := k.started
		k.mu.Unlock()
		if started {
			<-k.done
		}
		return nil
	}
	k.closed = true
	started := k.started
	k.mu.Unlock()
	if started {
		close(k.stop)
		<-k.done
	}
	return k.Flush()
}
