// Package recall reproduces the shapes of the seven lock bugs CHANGES.md
// credits to the suite — two found by lockheld in PR 3, five by lockblock
// in PR 9 — each beside the form it was fixed to. The buggy lines must
// keep firing and the fixed forms must stay silent, whatever engine the
// lock family is built on.
package recall

import (
	"net"
	"sync"
	"time"
)

// client is a wire client; Close joins its reader goroutine.
type client struct {
	mu   sync.Mutex
	wire chan struct{} // capacity-1 token: the fixed form's serialiser
	conn net.Conn
	done chan struct{} // closed by the reader goroutine on exit
	n    int
}

func (c *client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// PR 3, nameserver.Client: the mutex was held across every round trip, so
// Stats and cache hits queued behind one slow peer.
func (c *client) resolveHeld(req, resp []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if _, err := c.conn.Write(req); err != nil { // want `conn write while \(\*recall\.client\)\.mu is held`
		return err
	}
	_, err := c.conn.Read(resp) // want `conn read while \(\*recall\.client\)\.mu is held`
	return err
}

// Fixed: a wire token serialises the conn; the mutex guards only state.
func (c *client) resolveFixed(req, resp []byte) error {
	c.wire <- struct{}{}
	defer func() { <-c.wire }()
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	if _, err := c.conn.Write(req); err != nil {
		return err
	}
	_, err := c.conn.Read(resp)
	return err
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, wire: make(chan struct{}, 1), done: make(chan struct{})}, nil
}

// pool caches one client per replica address.
type pool struct {
	mu      sync.Mutex
	clients map[string]*client
}

// PR 3, remote.Proc: the pool dialed under its lock.
func (p *pool) getDialHeld(addr string) (*client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.clients[addr]; ok {
		return c, nil
	}
	c, err := dial(addr) // want `dial while \(\*recall\.pool\)\.mu is held`
	if err != nil {
		return nil, err
	}
	p.clients[addr] = c
	return c, nil
}

// PR 9, replsvc.Pool.clientFor: the dial had moved outside, but the loser
// of a dial race was closed — joining its reader — under the lock.
func (p *pool) getCloseHeld(addr string) (*client, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.clients[addr]; ok {
		_ = c.Close() // want `call to Close, which may block \(channel receive .*\), while \(\*recall\.pool\)\.mu is held`
		return prev, nil
	}
	p.clients[addr] = c
	return c, nil
}

// Fixed: dial outside, install under the lock, close the loser after it.
func (p *pool) getFixed(addr string) (*client, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	prev, raced := p.clients[addr]
	if !raced {
		p.clients[addr] = c
	}
	p.mu.Unlock()
	if raced {
		_ = c.Close()
		return prev, nil
	}
	return c, nil
}

// PR 9, replsvc.Pool.dropClient: closed the dropped client under the lock.
func (p *pool) dropHeld(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.clients[addr]; ok {
		_ = c.Close() // want `call to Close, which may block \(channel receive`
		delete(p.clients, addr)
	}
}

// Fixed: detach under the lock, close outside it.
func (p *pool) dropFixed(addr string) {
	p.mu.Lock()
	c, ok := p.clients[addr]
	delete(p.clients, addr)
	p.mu.Unlock()
	if ok {
		_ = c.Close()
	}
}

// PR 9, replsvc.Pool.Close and remote.Proc.Close: every pooled client was
// closed inside the loop that held the lock.
func (p *pool) closeHeld() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr, c := range p.clients {
		_ = c.Close() // want `call to Close, which may block \(channel receive`
		delete(p.clients, addr)
	}
}

// proc is remote.Proc's shape: the same pool, keyed by shard.
type proc struct {
	mu     sync.Mutex
	shards map[int]*client
}

func (p *proc) closeHeld() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, c := range p.shards {
		_ = c.Close() // want `call to Close, which may block \(channel receive .*\), while \(\*recall\.proc\)\.mu is held`
		delete(p.shards, i)
	}
}

// Fixed, both: detach the map under the lock, tear down outside it.
func (p *pool) closeFixed() {
	p.mu.Lock()
	clients := p.clients
	p.clients = make(map[string]*client)
	p.mu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
}

// server joins its workers on Close; a worker closes the serve-loop channel.
type server struct{ wg sync.WaitGroup }

func (s *server) Close() { s.wg.Wait() }

type replicaSet struct {
	mu      sync.Mutex
	servers []*server
	done    []chan struct{}
}

// PR 9, replsvc.StopReplica: joined the replica's workers and waited for
// its serve loop under the set's own mutex.
func (rs *replicaSet) stopHeld(i int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.servers[i].Close() // want `call to Close, which may block \(sync\.WaitGroup\.Wait .*\), while \(\*recall\.replicaSet\)\.mu is held`
	<-rs.done[i]          // want `channel receive while \(\*recall\.replicaSet\)\.mu is held`
}

// Fixed: read the pair under the lock, block after releasing it.
func (rs *replicaSet) stopFixed(i int) {
	rs.mu.Lock()
	srv, done := rs.servers[i], rs.done[i]
	rs.mu.Unlock()
	srv.Close()
	<-done
}
