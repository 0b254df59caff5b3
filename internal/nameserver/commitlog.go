// The commit log: the one record of "a revision advanced, and here is why".
// bump and SetRevision append an entry under Server.mu before the new
// revision becomes readable, and every consumer is a cursor on the log — a
// subscribed connection reads frames from its position (server.go), a
// backup's applier reads mutations from a pinned one (Follower), the
// cluster's snapshot flush reads dirty directories from one it holds itself
// (ChangedSince) —
// so lag is head − cursor for all three, and what a consumer that fell
// behind is owed is decided here and nowhere else:
//
//   - a subscriber, every entry while it is at most maxPendingInvalidations
//     behind the head; further behind, one frame for the head's revision
//     that says "everything";
//   - a follower, every mutation, however far behind: the tail is kept down
//     to the slowest pinned cursor, once for all of them;
//   - a snapshot flush, the directories named since its position while
//     every entry since is retained and names one, otherwise "everything":
//     it pins nothing, so retains nothing and has no payload staged, however
//     rarely it reads.

package nameserver

import (
	"slices"
	"sync"
	"sync/atomic"

	"namecoherence/internal/core"
)

// maxPendingInvalidations bounds what a subscriber can be owed, and what
// the log keeps when nothing is pinned. A subscriber that far behind has
// stopped reading, and one "everything" frame is also cheaper for it to
// apply than a thousand single purges.
const maxPendingInvalidations = 1024

// commit is one log entry: one revision advance. A zero dir says
// "everything may have changed"; a nil mut says there is nothing to
// replicate — a Bump, a SetRevision jump, a replicated apply, an
// in-process bind.
type commit struct {
	rev  uint64
	dir  core.EntityID
	name core.Name
	mut  *mutation
}

type commitLog struct {
	// head is the position one past the newest entry; positions count
	// entries ever appended. Stored under mu, loaded bare by a responder's
	// steady check.
	head atomic.Uint64
	// pinned is len(pins), readable without mu.
	pinned atomic.Int32

	mu      sync.Mutex
	grew    sync.Cond // L is &mu: an append, or a parked reader must go
	settled sync.Cond // L is &mu: a follower's cursor moved, or Wait must return
	entries []commit  // positions [head-len(entries), head)
	staged  *mutation
	pins    []*Follower
	closed  bool
}

// stage sets the payload the next append carries: the write path calls it
// immediately before the change whose watch (or explicit Bump) appends, so
// the mutation is in its entry from the moment the entry exists. (An
// in-process bind racing the wire write would carry it one revision early,
// which the idempotent, revision-tagged apply absorbs.) A replicated apply
// is not replicated on, and with no follower pinned nothing is recorded:
// an unreplicated server, and every backup, pays nothing.
func (l *commitLog) stage(m mutation) {
	if m.atRev != 0 || l.pinned.Load() == 0 {
		return
	}
	m.dir = m.dir.Clone()
	l.mu.Lock()
	l.staged = &m
	l.mu.Unlock()
}

// append adds one entry. The caller holds Server.mu and makes e.rev readable
// only afterwards.
func (l *commitLog) append(e commit) {
	l.mu.Lock()
	if e.mut, l.staged = l.staged, nil; e.mut != nil {
		e.mut.atRev = e.rev
	}
	l.entries = append(l.entries, e)
	l.head.Add(1)
	l.trim()
	l.grew.Broadcast()
	l.mu.Unlock()
}

// trim drops what no consumer is owed: entries below both the slowest
// pinned cursor and the newest maxPendingInvalidations. The caller holds mu.
func (l *commitLog) trim() {
	head := l.head.Load()
	keep := head - min(head, maxPendingInvalidations)
	for _, f := range l.pins {
		keep = min(keep, f.pos)
	}
	if base := head - uint64(len(l.entries)); keep > base {
		clear(l.entries[:keep-base]) // release the payloads now, not at the next regrow
		l.entries = l.entries[keep-base:]
	}
}

// at returns the retained entry at pos. The caller holds mu.
func (l *commitLog) at(pos uint64) *commit {
	return &l.entries[uint64(len(l.entries))-(l.head.Load()-pos)]
}

// next returns the frame a subscriber at pos is owed and its position
// afterwards; !ok when it is at the head.
func (l *commitLog) next(pos uint64) (e commit, after uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch head := l.head.Load(); {
	case pos == head:
		return commit{}, pos, false
	case head-pos > maxPendingInvalidations:
		return commit{rev: l.at(head - 1).rev}, head, true
	}
	return *l.at(pos), pos + 1, true
}

// ChangedSince is the snapshot flush's read of the log: the distinct
// directories whose leaf bindings the entries in [pos, head) changed, and the
// head to read from next time — or all: an entry since was coarse (a
// directory bound or unbound, a Bump, a SetRevision jump, an export reaching
// a union) or pos is no longer retained. A closed server still answers:
// cluster.Close closes its servers before the final flush.
func (s *Server) ChangedSince(pos uint64) (dirs []core.EntityID, head uint64, all bool) {
	l := &s.log
	l.mu.Lock()
	defer l.mu.Unlock()
	head = l.head.Load()
	if head-pos > uint64(len(l.entries)) {
		return nil, head, true
	}
	for ; pos < head; pos++ {
		dir := l.at(pos).dir
		if dir == 0 {
			return nil, head, true
		}
		dirs = append(dirs, dir)
	}
	slices.Sort(dirs)
	return slices.Compact(dirs), head, false
}

// await parks a subscriber's pusher until the head has moved past seen, and
// returns the head; !ok once release has set *gone.
func (l *commitLog) await(seen uint64, gone *bool) (head uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.head.Load() == seen && !*gone {
		l.grew.Wait()
	}
	return l.head.Load(), !*gone
}

// release sets *gone — a connection's flag for its pusher, or the log's own
// closed — and wakes everything parked to look at it.
func (l *commitLog) release(gone *bool) {
	l.mu.Lock()
	*gone = true
	l.grew.Broadcast()
	l.settled.Broadcast()
	l.mu.Unlock()
}

// AppliedMutation is a mutation a server committed locally, as Follower.Next
// yields it and Client.ReplicaApply re-issues it to a backup: tagged with
// the revision it committed at and, for a mkcontext, the directory it
// created — backups register their own fresh directory in that one's
// replica group, keeping weak coherence measurable across the write path.
type AppliedMutation struct{ m mutation }

// Follower is a pinned cursor on a server's commit log: every locally
// originated mutation committed after Follow stays in the log, in commit
// order, until the follower has advanced past it — what a replicator needs
// to keep a backup convergent through an outage. One goroutine calls Next
// and Advance; Lag, Wait and Close are safe from any.
type Follower struct {
	log *commitLog
	// Guarded by log.mu.
	pos     uint64
	refused int
	closed  bool
}

// Follow pins a new cursor at the head of the log. Writes that must reach
// the follower start after it returns.
func (s *Server) Follow() *Follower {
	l := &s.log
	l.mu.Lock()
	defer l.mu.Unlock()
	f := &Follower{log: l, pos: l.head.Load()}
	l.pins = append(l.pins, f)
	l.pinned.Add(1)
	return f
}

// Next blocks until a mutation is at or past the cursor and returns it
// without advancing: until Advance, the next call returns it again. It
// reports false once the follower or the server is closed.
func (f *Follower) Next() (AppliedMutation, bool) {
	l := f.log
	l.mu.Lock()
	defer l.mu.Unlock()
	for ; !f.closed && !l.closed; l.grew.Wait() {
		from := f.pos
		for ; f.pos < l.head.Load(); f.pos++ { // past entries with nothing to replicate
			if m := l.at(f.pos).mut; m != nil {
				return AppliedMutation{*m}, true
			}
		}
		if f.pos != from {
			l.trim()
			l.settled.Broadcast()
		}
	}
	return AppliedMutation{}, false
}

// Advance settles the mutation Next returned — applied, or refused by the
// backup for good, which is counted — and moves past it.
func (f *Follower) Advance(refused bool) {
	l := f.log
	l.mu.Lock()
	defer l.mu.Unlock()
	f.pos++
	if refused {
		f.refused++
	}
	l.trim()
	l.settled.Broadcast()
}

// Lag reports how many log entries the follower has yet to settle, how many
// the log holds for all its consumers together, and how many mutations this
// follower's backup has refused.
func (f *Follower) Lag() (behind, retained, refused int) {
	l := f.log
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.head.Load() - f.pos), len(l.entries), f.refused
}

// Wait blocks until the follower has settled everything committed so far,
// or it or the server is closed.
func (f *Follower) Wait() {
	l := f.log
	l.mu.Lock()
	defer l.mu.Unlock()
	for f.pos < l.head.Load() && !f.closed && !l.closed {
		l.settled.Wait()
	}
}

// Close releases Next and Wait and unpins the cursor: the log stops
// retaining entries on its behalf.
func (f *Follower) Close() {
	l := f.log
	l.mu.Lock()
	defer l.mu.Unlock()
	f.closed = true
	l.pins = slices.DeleteFunc(l.pins, func(p *Follower) bool { return p == f })
	l.pinned.Store(int32(len(l.pins)))
	l.trim()
	l.grew.Broadcast()
	l.settled.Broadcast()
}
