// Package recall holds the shapes lockorder guards, beside the forms the
// cluster client's replica set uses instead. CHANGES.md credits the
// analyzer with no caught bug, so these are the guarded shapes, not a
// past finding: a breaker helper that locks the mutex its callers already
// hold, a read path that read-locks twice, and a dial callback run under
// the replica set's lock while the client calls into the set under its
// own must keep firing; the "callers hold mu" helper and the callback run
// after the unlock must stay silent.
package recall

import "sync"

// Client owns the replica sets and counts failovers under its own mutex.
type Client struct {
	mu        sync.Mutex
	failovers int
	set       *replicaSet
}

// replicaSet holds one shard's replicas and their breaker state.
type replicaSet struct {
	mu      sync.RWMutex
	client  *Client
	strikes int
	live    []string
}

// noteFailover counts under the client's mutex.
func (c *Client) noteFailover() {
	c.mu.Lock()
	c.failovers++
	c.mu.Unlock()
}

// Retire drops a replica while holding the client's mutex: client, then
// set.
func (c *Client) Retire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.set.retire() // want `lock order cycle: \(\*recall\.replicaSet\)\.mu is acquired while \(\*recall\.Client\)\.mu is held here, but the reverse order exists`
}

func (s *replicaSet) retire() {
	s.mu.Lock()
	s.live = s.live[1:]
	s.mu.Unlock()
}

// installUnderLock runs the dial callback before it unlocks: set, then
// client — the reverse of Retire.
func (s *replicaSet) installUnderLock(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live = append(s.live, addr)
	s.client.noteFailover()
}

// install is the shipped form: the callback runs after the unlock.
func (s *replicaSet) install(addr string) {
	s.mu.Lock()
	s.live = append(s.live, addr)
	s.mu.Unlock()
	s.client.noteFailover()
}

// chargeLocking takes the set's mutex itself, but its callers hold it.
func (s *replicaSet) chargeLocking() {
	s.mu.Lock()
	s.strikes++
	s.mu.Unlock()
}

// badLocking charges a strike while holding the mutex charge takes.
func (s *replicaSet) badLocking() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeLocking() // want `call to chargeLocking may re-acquire \(\*recall\.replicaSet\)\.mu, which is already held .*: the mutex is not reentrant`
}

// charge is the shipped form: breaker bookkeeping whose callers hold mu.
func (s *replicaSet) charge() { s.strikes++ }

func (s *replicaSet) bad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.charge()
}

// liveCount read-locks; pick calls it while already read-locked.
func (s *replicaSet) liveCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.live)
}

func (s *replicaSet) pickRecursive() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.liveCount() == 0 { // want `call to liveCount may re-acquire \(\*recall\.replicaSet\)\.mu, which is already held .*: a recursive RLock deadlocks`
		return ""
	}
	return s.live[0]
}

// pick is the fixed form: one read lock, the length read directly.
func (s *replicaSet) pick() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.live) == 0 {
		return ""
	}
	return s.live[0]
}
