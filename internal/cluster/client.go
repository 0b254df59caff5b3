package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"namecoherence/internal/core"
	"namecoherence/internal/lru"
	"namecoherence/internal/nameserver"
)

// Client fronts a sharded cluster: it routes every name to the shard
// serving its prefix, shares one multiplexed connection per replica (the
// wire client pipelines concurrent requests, so shard lookups overlap on
// a single conn), answers repeats from a revision-tracked LRU cache,
// coalesces concurrent identical lookups, and resolves batches with one
// round-trip per shard. Every round-trip runs under a deadline; transport
// failures retire the poisoned connection and are retried with
// exponential backoff across the shard's replicas, and replicas that keep
// failing are circuit-broken so they stop absorbing dials.
type Client struct {
	network string
	routes  *nameserver.RouteInfo
	shards  []*replicaSet
	retries int
	backoff time.Duration

	// wg joins the per-shard batch goroutines; Close waits on it after
	// flipping closed, so no request goroutine outlives the client.
	wg sync.WaitGroup

	mu            sync.Mutex
	closed        bool
	cache         *lru.Cache[string, cacheEntry]
	revs          []uint64 // per-shard binding revision the cache is current to
	flights       map[string]*flight
	hits          int
	misses        int
	coalesced     int
	purges        int // whole-shard purges that removed something
	entriesPurged int // entries removed by any purge, whole-shard or single-binding
	failovers     int
	// push invalidation (see WithPushInvalidation): every shared
	// connection subscribes on dial, and pushed frames feed the per-shard
	// purge rule without waiting for the next miss.
	push          bool
	invalidations int
}

// batchJoinHook, when non-nil, runs as each batch goroutine finishes but
// before it leaves the join group — the close-join regression test uses it
// to prove Close waited.
var batchJoinHook func()

// cacheEntry tags each cached binding with its shard, so a revision
// advance purges only entries that shard vouched for — and with where the
// name's final component was looked up, so a pushed frame that names the
// binding it changed purges only entries that binding could have answered.
// dir is the answering server's entity for that directory (0: the server
// could not say); it means something only next to frames from the same
// replica, since every replica numbers its own copy of the subtree.
type cacheEntry struct {
	entity  core.Entity
	dir     core.EntityID
	shard   int32
	replica int32
}

// flight is one in-progress resolution that concurrent identical lookups
// wait on instead of issuing their own round-trips.
type flight struct {
	done chan struct{}
	e    core.Entity
	err  error
}

// ErrClientClosed is returned by requests that race or follow Close.
var ErrClientClosed = errors.New("cluster: client closed")

// Failure-model defaults. A request makes 1+defaultRetries attempts, each
// bounded by defaultTimeout (dial and round-trip alike); attempts after
// the first wait defaultBackoffBase·2^(n-1) plus equal jitter. A replica
// with defaultBreakerThreshold consecutive failures is skipped for
// defaultBreakerCooldown.
const (
	defaultTimeout          = 5 * time.Second
	defaultRetries          = 2
	defaultBackoffBase      = 2 * time.Millisecond
	maxBackoff              = 100 * time.Millisecond
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 250 * time.Millisecond
)

// ClientOption configures a Client.
type ClientOption interface {
	apply(*Client)
}

type lruOption int

func (o lruOption) apply(c *Client) {
	c.cache = lru.New[string, cacheEntry](int(o))
}

// WithLRU enables a revision-tracked LRU cache of at most n entries.
// Every response carries its shard's binding revision; when a shard's
// revision advances, that shard's entries are purged before anything new
// is trusted — the coherent-cache staleness bound, per shard.
func WithLRU(n int) ClientOption {
	return lruOption(n)
}

type timeoutOption time.Duration

func (o timeoutOption) apply(c *Client) {
	for _, p := range c.shards {
		p.timeout = time.Duration(o)
	}
}

// WithTimeout bounds every dial and round-trip (default 5s; 0 disables).
// A hung replica then costs one timeout, not a wedged client: the
// per-call timer fails only the waiting call, and the poisoned connection
// is retired on the way out.
func WithTimeout(d time.Duration) ClientOption {
	return timeoutOption(d)
}

type retriesOption int

func (o retriesOption) apply(c *Client) { c.retries = int(o) }

// WithRetries sets how many extra attempts follow a transport failure
// (default 2). Retries prefer a different replica of the shard, so with
// replication a single dead replica is survived within one request.
func WithRetries(n int) ClientOption {
	return retriesOption(n)
}

type backoffOption time.Duration

func (o backoffOption) apply(c *Client) { c.backoff = time.Duration(o) }

// WithBackoff sets the base delay before retry n to base·2^(n-1) plus
// equal jitter, capped at 100ms (default base 2ms; 0 disables waiting).
func WithBackoff(base time.Duration) ClientOption {
	return backoffOption(base)
}

type breakerOption struct {
	threshold int
	cooldown  time.Duration
}

func (o breakerOption) apply(c *Client) {
	for _, p := range c.shards {
		p.breakerThreshold = o.threshold
		p.breakerCooldown = o.cooldown
	}
}

// WithBreaker configures the per-replica circuit breaker: after threshold
// consecutive failures a replica is skipped for cooldown, then probed
// again (default 3 failures, 250ms; threshold 0 disables breaking).
func WithBreaker(threshold int, cooldown time.Duration) ClientOption {
	return breakerOption{threshold: threshold, cooldown: cooldown}
}

// NewClient returns a client over an already-known routing table.
func NewClient(network string, routes *nameserver.RouteInfo, opts ...ClientOption) *Client {
	c := &Client{
		network: network,
		routes:  routes.Clone(),
		shards:  make([]*replicaSet, len(routes.Addrs)),
		revs:    make([]uint64, len(routes.Addrs)),
		flights: make(map[string]*flight),
		retries: defaultRetries,
		backoff: defaultBackoffBase,
	}
	for i := range routes.Addrs {
		c.shards[i] = newReplicaSet(network, c.routes.ReplicaAddrs(i), defaultTimeout)
		c.shards[i].breakerThreshold = defaultBreakerThreshold
		c.shards[i].breakerCooldown = defaultBreakerCooldown
		c.shards[i].onDial = func(conn *sharedConn) { c.maybeSubscribe(i, conn) }
	}
	for _, o := range opts {
		o.apply(c)
	}
	return c
}

// Dial bootstraps a cluster client from any one member: it fetches the
// routing table from the seed server and connects per shard on demand.
// The seed dial and the bootstrap round-trip are bounded like every later
// one: by WithTimeout when the caller gave one, else by the default (which
// also stands in for "no timeout" — a bootstrap never waits forever). A
// close error on the one-shot seed connection is ignored once the routing
// table is in hand — the routes are valid regardless.
func Dial(network, seedAddr string, opts ...ClientOption) (*Client, error) {
	timeout := defaultTimeout
	for _, o := range opts {
		if t, ok := o.(timeoutOption); ok && t > 0 {
			timeout = time.Duration(t)
		}
	}
	seed, err := nameserver.DialTimeout(network, seedAddr, timeout, nameserver.WithTimeout(timeout))
	if err != nil {
		return nil, fmt.Errorf("dial cluster seed: %w", err)
	}
	routes, err := seed.Routes()
	_ = seed.Close()
	if err != nil {
		return nil, fmt.Errorf("bootstrap routes from %s: %w", seedAddr, err)
	}
	return NewClient(network, routes, opts...), nil
}

// Routes returns the routing table the client operates with.
func (c *Client) Routes() *nameserver.RouteInfo { return c.routes.Clone() }

// Resolve resolves one compound name: from the cache if possible, else by
// one round-trip to the shard serving the name's prefix, failing over
// across the shard's replicas on transport errors. Concurrent resolutions
// of the same name share one round-trip (and its outcome, including a
// failure — but a failed flight is never reused by later calls).
func (c *Client) Resolve(p core.Path) (core.Entity, error) {
	// A non-canonical name fails here, not after three replica retries:
	// the server would reject it as firmly as the first replica did.
	if _, err := nameserver.CanonicalWirePath(p); err != nil {
		return core.Undefined, err
	}
	key := p.String()
	c.mu.Lock()
	if c.cache != nil {
		if entry, ok := c.cache.Get(key); ok {
			c.hits++
			c.mu.Unlock()
			return entry.entity, nil
		}
	}
	if f, ok := c.flights[key]; ok {
		// Someone is already fetching this name: share their answer.
		c.coalesced++
		c.mu.Unlock()
		<-f.done
		return f.e, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	shard := c.routes.ShardFor(p)
	entry, rev, err := c.resolveAtShard(shard, p)

	c.mu.Lock()
	if c.noteRevision(shard, rev, err) && err == nil {
		c.cache.Put(key, entry)
	}
	delete(c.flights, key)
	c.mu.Unlock()
	f.e, f.err = entry.entity, err
	close(f.done)
	return entry.entity, err
}

// resolveAtShard runs one single-name round-trip against the shard, with
// bounded retry: each transport failure retires the poisoned shared
// connection, records it against the replica's breaker, backs off, and
// prefers a different replica on the next attempt. The answer comes back as
// the cache would keep it.
func (c *Client) resolveAtShard(shard int, p core.Path) (cacheEntry, uint64, error) {
	set := c.shards[shard]
	var lastErr error
	avoid := -1
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoffDelay(attempt))
		}
		conn, err := set.get(avoid)
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return cacheEntry{}, 0, err
			}
			lastErr = fmt.Errorf("shard %d: %w", shard, err)
			continue
		}
		e, dir, rev, err := conn.ResolveRev(p)
		if err == nil || isRemote(err) {
			set.ok(conn.replica)
			return cacheEntry{entity: e, dir: dir, shard: int32(shard), replica: int32(conn.replica)}, rev, err
		}
		// Transport failure: the shared connection is poisoned, retire it
		// and charge the replica's breaker.
		set.retire(conn)
		c.noteFailover()
		avoid = conn.replica
		lastErr = fmt.Errorf("shard %d replica %d: %w", shard, conn.replica, err)
	}
	return cacheEntry{}, 0, lastErr
}

// batchAtShard is resolveAtShard for one wire batch; it also reports which
// replica answered.
func (c *Client) batchAtShard(shard int, keys []core.Path) ([]BatchResult, int, uint64, error) {
	set := c.shards[shard]
	var lastErr error
	avoid := -1
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoffDelay(attempt))
		}
		conn, err := set.get(avoid)
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return nil, 0, 0, err
			}
			lastErr = fmt.Errorf("shard %d: %w", shard, err)
			continue
		}
		results, rev, err := conn.ResolveBatchRev(keys)
		if err == nil {
			set.ok(conn.replica)
			return results, conn.replica, rev, nil
		}
		set.retire(conn)
		c.noteFailover()
		avoid = conn.replica
		lastErr = fmt.Errorf("shard %d replica %d: %w", shard, conn.replica, err)
	}
	return nil, 0, 0, lastErr
}

// backoffDelay returns the wait before retry attempt (1-based): the base
// doubled per retry, capped, plus uniform jitter of the same magnitude so
// concurrent retries spread out.
func (c *Client) backoffDelay(attempt int) time.Duration {
	if c.backoff <= 0 {
		return 0
	}
	d := c.backoff << (attempt - 1)
	if d > maxBackoff {
		d = maxBackoff
	}
	return d + rand.N(d)
}

// noteFailover counts retried transport failures (the first attempt's
// counts too: it is the failure that triggers failing over).
func (c *Client) noteFailover() {
	c.mu.Lock()
	c.failovers++
	c.mu.Unlock()
}

// noteRevision applies the per-shard purge rule to a response's revision
// and reports whether the response may fill the cache. Callers hold c.mu.
// The revision is trusted only from successful or remote-failed responses
// (rev 0 from a transport error must not purge anything).
//
// Polling, the revision is all the client ever learns: any response whose
// revision differs from the shard's says the subtree changed since the
// shard's entries were fetched, and everything that shard vouched for goes
// before anything new is trusted. Subscribed, frames move revs (see
// pushed), and a response only confirms it: one at revs[shard] fills; one
// ahead of it outran its frames — a connection whose subscription failed —
// and falls back to the purge; one behind it is the caller's answer but
// not the cache's. The reader consumes a frame the moment it arrives while
// the caller of an earlier response may not have run yet: that answer can
// predate the commit the frame announced, so it is not admitted, and it
// purges nothing — and revs never moves backwards, or the next frame would
// read as a gap and purge the shard a second time.
func (c *Client) noteRevision(shard int, rev uint64, err error) bool {
	if c.cache == nil || (err != nil && !isRemote(err)) {
		return false
	}
	switch {
	case rev == c.revs[shard]:
	case c.push && rev < c.revs[shard]:
		return false
	default:
		c.purgeShard(shard)
		c.revs[shard] = rev
	}
	return true
}

// purgeShard removes everything the shard vouched for. Callers hold c.mu.
func (c *Client) purgeShard(shard int) {
	removed := c.cache.DeleteFunc(func(_ string, e cacheEntry) bool {
		return int(e.shard) != shard
	})
	if removed > 0 {
		c.purges++
		c.entriesPurged += removed
	}
}

// purgeBinding removes the shard's entries that the binding name in
// directory dir, as numbered by replica, can have answered: those whose
// final component was looked up as exactly that pair, and those whose
// directory is unknown — the server could not say, or another replica
// said, in its own numbers. The directory is an entity, not a path prefix:
// bound under two paths it is still one directory, and names cached through
// either go. Callers hold c.mu.
func (c *Client) purgeBinding(shard, replica int, dir core.EntityID, name core.Name) {
	c.entriesPurged += c.cache.DeleteFunc(func(key string, e cacheEntry) bool {
		if int(e.shard) != shard {
			return true
		}
		if e.dir == 0 || int(e.replica) != replica {
			return false
		}
		return e.dir != dir || !endsWithComponent(key, string(name))
	})
}

// endsWithComponent reports whether the last component of the cache key
// (a path rendered with core.Separator) is name.
func endsWithComponent(key, name string) bool {
	if !strings.HasSuffix(key, name) {
		return false
	}
	rest := key[:len(key)-len(name)]
	return rest == "" || strings.HasSuffix(rest, core.Separator)
}

// BatchResult is one outcome of a batched cluster resolution.
type BatchResult = nameserver.BatchResult

// ResolveBatch resolves every path with at most one round-trip per shard:
// cache hits are answered locally, the rest are grouped by shard,
// deduplicated, and sent as wire batches in parallel, each with the same
// retry/failover policy as Resolve. Results are in argument order. A shard
// that stays unreachable yields per-item errors for its names only —
// healthy shards' results are always returned; the error is non-nil only
// when nothing at all was resolvable.
func (c *Client) ResolveBatch(paths []core.Path) ([]BatchResult, error) {
	out := make([]BatchResult, len(paths))
	if len(paths) == 0 {
		return out, nil
	}

	// Partition into per-shard work lists of unique keys.
	type shardWork struct {
		keys  []core.Path
		index map[string][]int // key -> positions in paths
	}
	work := make(map[int]*shardWork)
	answered := 0 // paths with a definitive outcome (cache, success, or remote error)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		for i := range out {
			out[i] = BatchResult{Entity: core.Undefined, Err: ErrClientClosed}
		}
		return out, ErrClientClosed
	}
	for i, p := range paths {
		if _, err := nameserver.CanonicalWirePath(p); err != nil {
			// A non-canonical name fails in its slot without touching the
			// cache or the wire; the rest of the batch proceeds.
			out[i] = BatchResult{Entity: core.Undefined, Err: err}
			answered++
			continue
		}
		key := p.String()
		if c.cache != nil {
			if entry, ok := c.cache.Get(key); ok {
				c.hits++
				out[i] = BatchResult{Entity: entry.entity}
				answered++
				continue
			}
		}
		c.misses++
		shard := c.routes.ShardFor(p)
		w := work[shard]
		if w == nil {
			w = &shardWork{index: make(map[string][]int)}
			work[shard] = w
		}
		if _, seen := w.index[key]; !seen {
			w.keys = append(w.keys, p)
		}
		w.index[key] = append(w.index[key], i)
	}
	// Register the shard goroutines with the join group while the closed
	// check above is still fresh: Close flips closed under this mutex
	// before waiting, so it either sees these Adds or we see closed.
	c.wg.Add(len(work))
	c.mu.Unlock()
	if len(work) == 0 {
		return out, nil
	}

	// One concurrent wire batch per shard.
	type shardAnswer struct {
		shard   int
		replica int
		results []BatchResult
		rev     uint64
		err     error
	}
	answers := make(chan shardAnswer, len(work))
	runShard := func(shard int, w *shardWork) {
		if batchJoinHook != nil {
			defer batchJoinHook()
		}
		results, replica, rev, err := c.batchAtShard(shard, w.keys)
		answers <- shardAnswer{shard: shard, replica: replica, results: results, rev: rev, err: err}
	}
	for shard, w := range work {
		if len(work) == 1 {
			// One shard: run on the caller's goroutine. A spawn here buys no
			// concurrency and charges a fresh stack (grown through the codec's
			// reflection) to every single-shard batch.
			func() {
				defer c.wg.Done()
				runShard(shard, w)
			}()
			continue
		}
		go func(shard int, w *shardWork) {
			defer c.wg.Done()
			runShard(shard, w)
		}(shard, w)
	}

	var firstErr error
	for range work {
		a := <-answers
		w := work[a.shard]
		if a.err != nil {
			// The shard stayed unreachable through every retry: its names
			// fail individually; other shards' answers stand.
			if firstErr == nil {
				firstErr = a.err
			}
			for _, positions := range w.index {
				for _, i := range positions {
					out[i] = BatchResult{Entity: core.Undefined, Err: a.err}
				}
			}
			continue
		}
		c.mu.Lock()
		fill := c.noteRevision(a.shard, a.rev, nil)
		for k, res := range a.results {
			key := w.keys[k].String()
			if fill && res.Err == nil {
				c.cache.Put(key, cacheEntry{entity: res.Entity, dir: res.Dir, shard: int32(a.shard), replica: int32(a.replica)})
			}
			for _, i := range w.index[key] {
				out[i] = res
				answered++
			}
		}
		c.mu.Unlock()
	}
	if firstErr != nil && answered == 0 {
		return out, firstErr
	}
	return out, nil
}

// Stats returns cache hits and misses so far (coalesced lookups count as
// neither; see Coalesced).
func (c *Client) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Coalesced returns how many lookups were answered by piggybacking on a
// concurrent identical request instead of their own round-trip.
func (c *Client) Coalesced() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}

// Purges returns how many times a shard's cache entries were purged
// wholesale: by a revision advance the client learned of from a response,
// a pushed frame that named no binding or left a gap, or a freshly
// subscribed connection (see EntriesPurged for what single-binding frames
// remove).
func (c *Client) Purges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.purges
}

// EntriesPurged returns how many cache entries invalidation has removed so
// far, whole-shard purges and single-binding frames together.
func (c *Client) EntriesPurged() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entriesPurged
}

// Failovers returns how many transport failures triggered a retry or
// replica failover.
func (c *Client) Failovers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers
}

// Close closes every shared connection, fails requests that race or
// follow it with ErrClientClosed, and waits for in-flight batch
// goroutines to finish — after Close returns, the client owns no
// goroutines.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, p := range c.shards {
		p.close()
	}
	c.wg.Wait()
}

// isRemote reports whether err is a definitive server-side answer (the
// name does not resolve) rather than a transport failure.
func isRemote(err error) bool {
	var re *nameserver.RemoteError
	return errors.As(err, &re)
}

// breaker tracks one replica's consecutive transport failures. Once they
// reach the set's threshold the replica is skipped until the cooldown
// passes; the next probe then either resets it or re-opens it.
type breaker struct {
	failures  int
	openUntil time.Time
}

// allows reports whether the replica may be dialed.
func (b *breaker) allows(now time.Time, threshold int) bool {
	return threshold <= 0 || b.failures < threshold || !now.Before(b.openUntil)
}

// sharedConn is a multiplexed wire connection tagged with the replica it
// reaches. Any number of shard requests use it concurrently; the wire
// client pipelines them.
type sharedConn struct {
	*nameserver.Client
	replica int
}

// replicaSet maintains at most one shared connection per replica of one
// shard. Concurrent requests multiplex over the same connection instead
// of checking out exclusive ones; a connection leaves the set only when a
// transport failure retires it (retire) or the set closes.
type replicaSet struct {
	network          string
	addrs            []string // replica addresses, primary first
	timeout          time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	// onDial, when non-nil, runs once for each connection installed as the
	// shared one, outside the set's mutex (it may perform wire I/O — the
	// push-invalidation subscription rides it).
	onDial func(*sharedConn)

	mu       sync.Mutex
	conns    []*sharedConn // per-replica shared connection, nil until dialed
	closed   bool
	breakers []breaker
}

// newReplicaSet returns a set over addrs with nothing dialed and the
// circuit breaker off (threshold 0).
func newReplicaSet(network string, addrs []string, timeout time.Duration) *replicaSet {
	return &replicaSet{
		network:  network,
		addrs:    addrs,
		timeout:  timeout,
		conns:    make([]*sharedConn, len(addrs)),
		breakers: make([]breaker, len(addrs)),
	}
}

// get returns the shared connection of a healthy replica, dialing one if
// none is up: the primary first, then the rest, skipping replicas whose
// breaker is open and trying the replica the caller just saw fail (avoid,
// -1 for none) last. It fails once the set is closed — including a dial
// that raced close, so no connection leaks past Close.
func (p *replicaSet) get(avoid int) (*sharedConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	// Every miss comes through here, and nearly every one finds the primary
	// up with nothing held against it: the first candidate the search below
	// would pick, found without reading the clock or building the list.
	if conn := p.conns[0]; conn != nil && avoid != 0 && p.breakers[0].failures == 0 {
		p.mu.Unlock()
		return conn, nil
	}
	now := time.Now()
	candidates := make([]int, 0, len(p.addrs))
	for r := range p.addrs {
		if r != avoid && p.breakers[r].allows(now, p.breakerThreshold) {
			candidates = append(candidates, r)
		}
	}
	if avoid >= 0 && avoid < len(p.addrs) && p.breakers[avoid].allows(now, p.breakerThreshold) {
		candidates = append(candidates, avoid)
	}
	// Reuse before dialing: the first candidate already up wins.
	for _, r := range candidates {
		if conn := p.conns[r]; conn != nil {
			p.mu.Unlock()
			return conn, nil
		}
	}
	p.mu.Unlock()
	if len(candidates) == 0 {
		return nil, fmt.Errorf("all %d replicas cooling down after repeated failures", len(p.addrs))
	}
	var lastErr error
	for _, r := range candidates {
		conn, err := p.dialReplica(r)
		if err != nil {
			p.bad(r)
			lastErr = err
			continue
		}
		return p.install(conn)
	}
	return nil, lastErr
}

// getReplica returns the shared connection to one specific replica,
// dialing it if needed. Unlike get it neither fails over nor consults the
// breaker — the write path uses it to reach the shard's primary and only
// the primary, failing cleanly when the primary is unreachable.
func (p *replicaSet) getReplica(r int) (*sharedConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	if conn := p.conns[r]; conn != nil {
		p.mu.Unlock()
		return conn, nil
	}
	p.mu.Unlock()
	conn, err := p.dialReplica(r)
	if err != nil {
		p.bad(r)
		return nil, err
	}
	return p.install(conn)
}

// install makes a freshly dialed conn the shared connection to its replica
// and returns the connection to use: conn, or the winner's when another
// dial got there first. The loser of that race is closed, as is a dial
// that raced close, so no connection leaks past Close; onDial runs outside
// the lock.
func (p *replicaSet) install(conn *sharedConn) (*sharedConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClientClosed
	}
	if winner := p.conns[conn.replica]; winner != nil {
		p.mu.Unlock()
		_ = conn.Close()
		return winner, nil
	}
	p.conns[conn.replica] = conn
	p.mu.Unlock()
	if p.onDial != nil {
		p.onDial(conn)
	}
	return conn, nil
}

// dialReplica dials one replica under the set's timeout, outside any lock
// (dialing is wire I/O; lockblock).
func (p *replicaSet) dialReplica(r int) (*sharedConn, error) {
	var nc *nameserver.Client
	var err error
	if p.timeout > 0 {
		nc, err = nameserver.DialTimeout(p.network, p.addrs[r], p.timeout, nameserver.WithTimeout(p.timeout))
	} else {
		nc, err = nameserver.Dial(p.network, p.addrs[r])
	}
	if err != nil {
		return nil, err
	}
	return &sharedConn{Client: nc, replica: r}, nil
}

// ok resets a replica's breaker after a successful round-trip.
func (p *replicaSet) ok(replica int) {
	p.mu.Lock()
	if p.breakers[replica].failures != 0 {
		p.breakers[replica] = breaker{}
	}
	p.mu.Unlock()
}

// charge counts one transport failure against a replica's breaker, opening
// it at the threshold. Callers hold p.mu.
func (p *replicaSet) charge(replica int) {
	b := &p.breakers[replica]
	b.failures++
	if p.breakerThreshold > 0 && b.failures >= p.breakerThreshold {
		b.openUntil = time.Now().Add(p.breakerCooldown)
	}
}

// bad charges a failed dial to a replica's breaker.
func (p *replicaSet) bad(replica int) {
	p.mu.Lock()
	p.charge(replica)
	p.mu.Unlock()
}

// retire charges a transport failure against conn's replica and drops
// conn from the set if it is still the shared one (a concurrent request
// may already have replaced it). The poisoned connection is closed either
// way; concurrent calls still on it fail fast and retry on a fresh one.
func (p *replicaSet) retire(conn *sharedConn) {
	p.mu.Lock()
	p.charge(conn.replica)
	if p.conns[conn.replica] == conn {
		p.conns[conn.replica] = nil
	}
	p.mu.Unlock()
	_ = conn.Close()
}

// close closes every shared connection; in-flight calls on them fail, and
// get fails from now on.
func (p *replicaSet) close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = make([]*sharedConn, len(p.addrs))
	p.closed = true
	p.mu.Unlock()
	for _, conn := range conns {
		if conn != nil {
			_ = conn.Close()
		}
	}
}
