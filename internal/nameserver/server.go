package nameserver

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"namecoherence/internal/core"
)

// Clone returns an independent copy.
func (r *RouteInfo) Clone() *RouteInfo {
	c := &RouteInfo{
		Prefixes: make(map[string]int, len(r.Prefixes)),
		Default:  r.Default,
		Addrs:    append([]string(nil), r.Addrs...),
	}
	for p, s := range r.Prefixes {
		c.Prefixes[p] = s
	}
	if r.Replicas != nil {
		c.Replicas = make([][]string, len(r.Replicas))
		for i, addrs := range r.Replicas {
			c.Replicas[i] = append([]string(nil), addrs...)
		}
	}
	return c
}

// ReplicaAddrs returns every address serving the given shard: the replica
// list when the deployment is replicated, else just the primary address.
func (r *RouteInfo) ReplicaAddrs(shard int) []string {
	if shard < len(r.Replicas) && len(r.Replicas[shard]) > 0 {
		return append([]string(nil), r.Replicas[shard]...)
	}
	return []string{r.Addrs[shard]}
}

// ShardFor returns the shard index serving the given path.
func (r *RouteInfo) ShardFor(p core.Path) int {
	if len(p) > 0 {
		if s, ok := r.Prefixes[string(p[0])]; ok {
			return s
		}
	}
	return r.Default
}

// serveWriteTimeout bounds each response write so a stalled peer cannot
// pin a server goroutine forever.
const serveWriteTimeout = time.Minute

// Server resolves names in an exported context on behalf of remote
// clients. Each connection is served by a leader/followers pool of
// resolver goroutines — whoever holds the decode token reads the next
// request, hands the token on, and resolves what it read — so one
// connection can carry many requests in flight; responses are written as
// resolutions complete, each tagged with the ID of the request it
// answers.
type Server struct {
	world    *core.World
	export   core.Context
	workers  int  // per-connection resolver pool size; immutable after NewServer
	readonly bool // immutable after NewServer; mutations are refused

	// wmu serializes every binding mutation applied through this server
	// (the wire write path and Stable). It is never held across wire I/O;
	// replies are written after it is released. The snapshot keeper runs
	// its snap closure under the same lock (via Stable), so a snapshot can
	// never observe a half-applied mutation — the rev/snap pair it commits
	// is torn-proof by construction.
	wmu sync.Mutex

	// The request path reads these without s.mu. Writers of rev still hold
	// s.mu, so an advance and its fan-out to subscribers stay one step.
	rev      atomic.Uint64
	served   atomic.Int64
	resolved atomic.Int64
	// coarse is set once the export is known to reach a directory that is
	// not a *core.BasicContext. A UnionContext answers a name from whichever
	// layer binds it first, so binding a file in one layer can turn what was
	// a directory into a dead end: "only the names ending at this binding
	// changed" no longer follows, and every frame says "everything".
	coarse atomic.Bool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	subs     map[*connState]struct{} // connections subscribed for push invalidation
	closed   bool
	routes   *RouteInfo
	// onMutation, when set, is called under wmu after each locally
	// originated mutation commits — in commit order, which is what a
	// primary-per-shard replicator needs to keep backups convergent.
	onMutation func(AppliedMutation)
	wg         sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption interface {
	apply(*Server)
}

type readonlyOption struct{}

func (readonlyOption) apply(s *Server) { s.readonly = true }

// WithReadOnly refuses every wire mutation with a clean error while
// leaving resolution untouched. Useful for serving a frozen snapshot or
// fencing a shard during maintenance.
func WithReadOnly() ServerOption {
	return readonlyOption{}
}

// NewServer returns a server exporting the given context of world.
func NewServer(w *core.World, export core.Context, opts ...ServerOption) *Server {
	s := &Server{
		world:   w,
		export:  export,
		workers: runtime.GOMAXPROCS(0),
		conns:   make(map[net.Conn]struct{}),
		subs:    make(map[*connState]struct{}),
	}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// Serve accepts connections on ln until Close is called, serving each
// connection on its own goroutine. It returns after the listener fails
// (normally: because Close closed it).
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.listener = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// connState bundles the wire state one connection's worker pool shares.
// The decoder is guarded by dtoken and the encoder by wtoken — capacity-1
// token channels rather than mutexes, because encoding to the peer is
// wire I/O and no sync.Mutex may be held across wire I/O (lockblock).
//
// Responses are only ever encoded into bw; when they leave follows one
// rule: buffered bytes are flushed by whoever is about to stop using the
// CPU, never per frame. A worker flushes at the two points where it can
// wait on something other than the processor — immediately before the
// conn's underlying Read (see Read) and before a mutation queues for the
// write mutex — while a responder that finds another worker already
// parked in that Read, and every invalidation push, flushes itself. So no
// byte sits in bw unless a runnable worker of this connection is on its
// way to a flush point.
type connState struct {
	conn   net.Conn
	br     *bufio.Reader // guarded by dtoken; fills through Read below
	bw     *bufio.Writer // guarded by wtoken; drains through wd
	wd     deadlineWriter
	dtoken chan struct{} // capacity 1; held by the worker currently decoding
	wtoken chan struct{} // capacity 1; held while encoding and flushing
	// parked is set while the decode-token holder is inside Read: it has
	// flushed and is (about to be) waiting for the peer, so nobody else
	// is on the way to flush what a responder encodes now.
	parked    atomic.Bool
	wbuf      []byte // encode scratch; guarded by wtoken
	closeOnce sync.Once

	// Push invalidation. pending holds the frames this subscriber is owed,
	// oldest first: every revision advance appends one before the new
	// revision becomes readable (see bump), and whoever next holds the write
	// token — a responder, or the pusher the append woke — encodes them all
	// ahead of anything else. So in the connection's stream no response at
	// revision r precedes the invalidation of a mutation committed at or
	// below r. Nothing here is allocated before the first frame is queued.
	pmu     sync.Mutex
	pending []invalidation // guarded by pmu
	queued  atomic.Bool    // len(pending) != 0, for the responder's check
	spare   []invalidation // guarded by wtoken: the array the last drain emptied
	frame   response       // guarded by wtoken: the drain's encode scratch
	// pushC wakes the pusher goroutine. Closed by ServeConn after the
	// connection leaves the subscriber set.
	pushC chan struct{}
}

// invalidation is one push frame owed to a subscriber: the revision that
// was committed and, when the commit's cause is known to be a leaf binding,
// which one (a zero dir says "everything").
type invalidation struct {
	rev  uint64
	dir  core.EntityID
	name core.Name
}

// maxPendingInvalidations bounds a subscriber's pending list. A subscriber
// that far behind has stopped reading; what it missed collapses to one
// "everything" frame — which is also cheaper for it to apply than a
// thousand single purges.
const maxPendingInvalidations = 1024

// Read is what br fills from: the decode-token holder lands here exactly
// when the bytes already buffered do not hold the rest of what it is
// decoding — an empty buffer or a partial frame alike, it is about to
// wait for the peer. It declares itself parked, then flushes, then reads.
// A responder samples parked after encoding, under the same write token
// the flush takes, so either it sees the flag and flushes its own bytes
// or its encode preceded this flush and rides it. An idle read blocks
// until the peer speaks; closing the conn (Close here, or Server.Close)
// unblocks it.
func (st *connState) Read(p []byte) (int, error) {
	st.parked.Store(true)
	st.flush()
	n, err := st.conn.Read(p)
	st.parked.Store(false)
	return n, err
}

// flush writes out whatever responses are buffered. A failed flush kills
// the conn, so the caller's next read or write fails instead of queueing
// answers nobody will receive.
func (st *connState) flush() {
	st.wtoken <- struct{}{}
	var err error
	if st.bw.Buffered() > 0 {
		err = st.bw.Flush()
	}
	<-st.wtoken
	if err != nil {
		st.Close()
	}
}

// queue appends one frame to the subscriber's pending list and wakes its
// pusher, without ever blocking. Called with Server.mu held, before the
// frame's revision becomes readable.
func (st *connState) queue(iv invalidation) {
	st.pmu.Lock()
	if len(st.pending) >= maxPendingInvalidations {
		st.pending = st.pending[:0]
		iv = invalidation{rev: iv.rev}
	}
	st.pending = append(st.pending, iv)
	st.queued.Store(true)
	st.pmu.Unlock()
	select {
	case st.pushC <- struct{}{}:
	default: // a wake-up is already on its way
	}
}

// drain encodes every pending invalidation into the write buffer. The
// caller holds the write token. The emptied array becomes the next drain's
// spare, so a steady stream of frames allocates nothing.
func (st *connState) drain() error {
	st.pmu.Lock()
	batch := st.pending
	st.pending = st.spare[:0]
	st.queued.Store(false)
	st.pmu.Unlock()
	var err error
	for i := 0; i < len(batch) && err == nil; i++ {
		st.frame = response{Rev: batch[i].rev, Invalidation: true, Dir: uint64(batch[i].dir), Name: string(batch[i].name)}
		err = st.encode(&st.frame)
	}
	st.spare = batch[:0]
	return err
}

// encode writes one message into the write buffer, append-encoding into
// the token-guarded scratch: the message's bytes are built and written
// with zero heap traffic. The caller holds the write token.
func (st *connState) encode(resp *response) error {
	st.wbuf = appendResponse(st.wbuf[:0], resp)
	return writeFrame(st.bw, st.wbuf)
}

// Close marks the stream unusable: the conn closes, failing any
// in-progress read or write, and each worker's next decode errors out —
// the decode token keeps circulating through the failing decodes, so the
// whole pool drains.
func (st *connState) Close() {
	st.closeOnce.Do(func() {
		_ = st.conn.Close()
	})
}

// ServeConn serves one connection until EOF or error, then closes it. It
// may be called directly (e.g. with one end of a net.Pipe).
//
// Requests are decoded in arrival order but resolved concurrently by up
// to s.workers goroutines, so responses can be written out of request
// order; each echoes its request's ID so the client can pair them up.
func (s *Server) ServeConn(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	st := &connState{
		conn:   conn,
		wd:     deadlineWriter{conn: conn, bound: serveWriteTimeout},
		dtoken: make(chan struct{}, 1),
		wtoken: make(chan struct{}, 1),
		pushC:  make(chan struct{}, 1),
	}
	st.br = bufio.NewReader(st)
	st.bw = bufio.NewWriter(&st.wd)
	if !negotiateServer(conn, st.br) {
		// The peer vanished before its first byte, died mid-handshake, or
		// speaks another version and has been told so.
		return
	}
	var pushWG sync.WaitGroup
	pushWG.Add(1)
	go func() {
		defer pushWG.Done()
		s.pushInvalidations(st)
	}()
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveRequests(st)
		}()
	}
	wg.Wait()
	// The workers have drained: the conn is dead. Leave the subscriber set
	// first (under mu, so no bump can queue concurrently), then close the
	// channel to stop the pusher, then join it.
	s.mu.Lock()
	delete(s.subs, st)
	s.mu.Unlock()
	close(st.pushC)
	pushWG.Wait()
}

// negotiateServer runs the server's half of the version handshake: it
// answers the connection's first byte, whatever it is, with the one
// version this server speaks, and reports whether the peer offered that
// same version. A false return is a refusal — the peer has the byte that
// says why, and the caller closes the connection. The wait for the first
// byte is the connection's ordinary idle state — Close unblocks it by
// closing the conn, exactly as it unblocks a worker's idle decode.
func negotiateServer(conn net.Conn, br *bufio.Reader) bool {
	hello, err := br.ReadByte()
	if err != nil {
		return false
	}
	_ = conn.SetWriteDeadline(time.Now().Add(serveWriteTimeout))
	reply := [1]byte{binaryMagic}
	if _, err := conn.Write(reply[:]); err != nil {
		return false
	}
	return hello == binaryMagic
}

// pushInvalidations is a connection's push goroutine: woken by every
// frame queued for the connection, it takes the write token, encodes
// whatever is still pending and flushes at once — a subscriber's staleness
// bound is a frame's flight time, whatever else the connection is doing.
// Frames share the write token with ordinary responses, so a push can never
// tear a response mid-message; a responder that got to the token first has
// already sent them (see respond), and the pusher finds nothing to do. The
// goroutine runs for every connection but stays parked until the peer
// subscribes (only subscribers are queued for); it exits when ServeConn
// closes pushC.
func (s *Server) pushInvalidations(st *connState) {
	for range st.pushC {
		st.wtoken <- struct{}{}
		var err error
		if st.queued.Load() {
			if err = st.drain(); err == nil {
				err = st.bw.Flush()
			}
		}
		<-st.wtoken
		if err != nil {
			st.Close()
		}
	}
}

// workerScratch is one resolver goroutine's reusable state: the frame
// and decode buffers a request is parsed into, and the path/results
// buffers resolution fills. Workers never share a scratch, so
// steady-state serving touches the allocator not at all —
// every buffer reaches its high-water mark and is reused, and the
// intern table absorbs the connection's recurring names.
type workerScratch struct {
	req     request
	path    core.Path
	results []result
	// Decode state: the raw frame (filled under dtoken,
	// parsed after release, so workers parse in parallel), the backing
	// arrays for the decoded request's Path/Paths, and the intern table
	// for its strings.
	frame    []byte
	reqPath  []string
	reqPaths [][]string
	names    strIntern
}

// serveRequests is one worker in a connection's leader/followers pool:
// whoever holds the decode token reads the next request, releases the
// token so another worker can read the one after, then resolves and
// writes the response itself. Decoding and encoding each stay
// single-streamed while up to s.workers resolutions run concurrently —
// and a serial client's request runs decode→resolve→encode on one
// goroutine with no handoffs at all.
//
//namingvet:allocfree
func (s *Server) serveRequests(st *connState) {
	var sc workerScratch
	// Declared outside the loop: resp's address reaches respond, so an
	// in-loop declaration heap-allocates every request. Every iteration
	// overwrites it wholesale before use.
	var resp response
	for {
		// Read the raw frame under the token, parse it after release: the
		// stream stays single-streamed while workers parse (and resolve) in
		// parallel. When the buffer runs dry the read flushes first, then
		// blocks until the peer speaks (st.Read); Close unblocks it by
		// closing the conn (conndeadline's idle-read exemption knows both
		// this loop and st.Read).
		st.dtoken <- struct{}{}
		body, err := readFrame(st.br, &sc.frame)
		<-st.dtoken
		if err == nil {
			err = parseRequest(body, &sc.req, &sc)
		}
		if err != nil {
			st.Close() // EOF, broken peer, or torn frame; drain the rest of the pool
			return
		}
		switch {
		case sc.req.Subscribe:
			// Subscription needs the connection identity, so it is handled
			// where the ack is written rather than in handle (see respond).
			resp = response{}
		case sc.req.Op != opNone:
			// A mutation queues for the write mutex, behind other writers
			// or a snapshot: answers already encoded must not wait with it.
			st.flush()
			resp = s.handleMutation(&sc.req)
		default:
			resp = s.handle(&sc)
		}
		resp.ID = sc.req.ID
		names := len(sc.req.Paths)
		if sc.req.Paths == nil && !sc.req.Routes {
			names = 1
		}
		s.served.Add(1)
		s.resolved.Add(int64(names))
		s.respond(st, &resp, sc.req.Subscribe)
	}
}

// respond encodes one response into the connection's write buffer under
// the write token, behind every invalidation queued before it: the
// response's revision was read after those frames were queued (see bump),
// so nothing it vouches for can overtake the news that made it stale. The
// steady path pays one atomic load for that. Only bytes with nobody behind
// them to flush them leave at once: invalidation frames (a subscriber's
// staleness bound is their flight time), or a response encoded while
// another worker is parked in the conn's Read. Any other response is
// flushed by its own worker at its next flush point (see connState), so a
// pipelined burst rides one syscall.
//
// With subscribe set, resp acknowledges a subscription, and the connection
// joins the subscriber set here, under the write token: the ack — which
// carries the revision the subscription starts from — is encoded before
// any frame the join entitles the connection to can be, and from there on
// every commit is queued for it, in order. The client starts from a known
// point and misses nothing.
func (s *Server) respond(st *connState, resp *response, subscribe bool) {
	st.wtoken <- struct{}{}
	var err error
	pushed := st.queued.Load()
	if pushed {
		err = st.drain()
	}
	if subscribe {
		s.mu.Lock()
		s.subs[st] = struct{}{}
		resp.Rev = s.rev.Load()
		s.mu.Unlock()
	}
	if err == nil {
		err = st.encode(resp)
	}
	if err == nil && (pushed || st.parked.Load()) {
		err = st.bw.Flush()
	}
	<-st.wtoken
	if err != nil {
		// The stream died mid-message; kill the conn so the decoders stop
		// instead of queueing answers nobody will read.
		st.Close()
	}
}

// handle serves one non-mutating wire request from sc.req, resolving into
// the worker's scratch buffers.
//
// The resolve cases return a revision consistent with the bindings they
// read, re-resolving until the revision settles. The revision is sampled
// after resolution — sampling before would let a concurrent Bump pair a
// fresh binding with a stale revision, deferring the coherent-cache purge
// by one round-trip and breaking WithCoherentCache's staleness bound. If
// the revision moved while resolving, the resolution raced a binding
// change and is retried against the newer revision; if it never settles,
// the pre-resolution revision is returned, which at worst forces the
// client to purge again next trip (conservative, never stale). The retry
// loop is written out in both cases rather than lifted into a helper
// taking a resolve closure: handle is on serveRequests' allocfree path,
// and the loop is the price of keeping it closure-free.
func (s *Server) handle(sc *workerScratch) response {
	req := &sc.req
	switch {
	case req.Routes:
		s.mu.Lock()
		routes := s.routes
		s.mu.Unlock()
		if routes == nil {
			return response{Err: "no routing table: server is not a cluster member"}
		}
		//namingvet:allocfree-exempt -- cold: routing bootstrap copies the table
		return response{Routes: routes.Clone()}
	case req.Paths != nil:
		results := sc.results[:0]
		rev := s.Revision()
		for attempt := 0; ; attempt++ {
			results = results[:0]
			for _, raw := range req.Paths {
				results = append(results, s.resolveOne(&sc.path, raw))
			}
			after := s.Revision()
			if after == rev || attempt == 3 {
				break
			}
			rev = after
		}
		sc.results = results
		return response{Rev: rev, Results: results}
	default:
		var res result
		rev := s.Revision()
		for attempt := 0; ; attempt++ {
			res = s.resolveOne(&sc.path, req.Path)
			after := s.Revision()
			if after == rev || attempt == 3 {
				break
			}
			rev = after
		}
		return response{Ent: res.ID, Kind: res.Kind, Rev: rev, Err: res.Err, Dir: res.Dir}
	}
}

// resolveOne resolves one wire path in the exported context, rebuilding it
// into the caller's scratch path (amortized: the backing array is reused
// across requests). The path is re-validated here even though well-behaved
// clients canonicalize before sending: the wire trusts no peer's parser
// (§6 — coherence is checked where the name is used, not only where it was
// made).
func (s *Server) resolveOne(scratch *core.Path, raw []string) result {
	p := (*scratch)[:0]
	for _, c := range raw {
		p = append(p, core.Name(c))
	}
	*scratch = p
	if err := checkWireCanonical(p); err != nil {
		return result{Err: err.Error()}
	}
	e, dir, err := s.world.ResolveIn(s.export, p)
	if err != nil {
		return result{Err: err.Error()}
	}
	return result{ID: uint64(e.ID), Kind: uint8(e.Kind), Dir: uint64(dir.ID)}
}

// Bump advances the server's binding revision and tells subscribed
// connections that anything may have changed. Coherent client caches purge
// their entries at the next round-trip after a bump — or on the pushed
// frame itself when subscribed — bounding cache staleness to one request.
// Call it whenever the exported naming graph changes in a way no watch
// reports; WatchExport bumps automatically, and its frames say what changed.
//
//namingvet:revbump
func (s *Server) Bump() { s.bump(invalidation{}) }

// bump commits one revision advance: the frame that announces it is queued
// for every subscriber first, and only then does the new revision become
// readable. A response that carries the new revision therefore finds the
// frame already pending on its own connection, and is written behind it.
//
//namingvet:revbump
func (s *Server) bump(what invalidation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	what.rev = s.rev.Load() + 1
	s.notifyLocked(what)
	s.rev.Store(what.rev)
}

// notifyLocked queues what for every subscribed connection. Callers hold
// s.mu; queueing never blocks (see connState.queue).
func (s *Server) notifyLocked(what invalidation) {
	for st := range s.subs {
		st.queue(what)
	}
}

// Revision returns the current binding revision.
func (s *Server) Revision() uint64 { return s.rev.Load() }

// SetRevision advances the binding revision to at least rev. Recovery
// uses it to resume a restored shard at the revision its snapshot was
// committed under, and replicated applies use it to adopt the primary's
// revision tag. It never moves the revision backwards: a client that
// already observed a higher revision must not see this server "rewind"
// past it, or the coherent-cache purge rule would admit stale entries as
// current. An advance notifies subscribers exactly like Bump: a jump says
// nothing about what changed on the way.
//
//namingvet:revbump
func (s *Server) SetRevision(rev uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rev > s.rev.Load() {
		s.notifyLocked(invalidation{rev: rev})
		s.rev.Store(rev)
	}
}

// Stable runs fn under the lock that serializes binding mutations: no
// wire write can commit while fn runs. The snapshot keeper routes its
// rev-probe/snapshot pair through Stable so the pair is consistent — a
// snapshot can never capture a mutation the probed revision predates.
// fn must not call back into the server's mutation path.
func (s *Server) Stable(fn func()) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	fn()
}

// SetRoutes installs the routing table this server hands to clients that
// ask (cluster members all carry the same table, so any member can
// bootstrap a cluster client).
func (s *Server) SetRoutes(routes *RouteInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes = routes.Clone()
}

// WatchExport hooks every directory reachable from root so that any
// binding change bumps the server revision, and returns how many
// directories are now watched. The watch is self-extending: when a
// binding introduces an entity, every directory reachable through it is
// watched too, so directories created (or attached) after watch time
// cannot mutate silently — the hole that once let a bind in a freshly
// made context leave client caches stale.
func (s *Server) WatchExport(root core.Entity) int {
	watched, opaque := s.world.WatchReachable(root, s.exportWatch)
	if opaque > 0 {
		s.coarse.Store(true)
	}
	return watched
}

// exportWatch is the watch callback installed on every exported
// directory, and the one place a revision advance learns its cause —
// wire mutations, replicated applies and in-process Binds all arrive here.
// It bumps the revision, then extends the watch over whatever the change
// made reachable (the recursion terminates because WatchReachable skips
// already-watched directories).
//
// A change whose old and new targets are both non-directories can only
// move names whose final lookup is this (directory, name) pair: to matter
// as an intermediate step a binding must yield a context object, before or
// after, and failed resolutions are never cached. Such a change is
// announced precisely; anything else — a directory bound or unbound, an
// export that reaches a union — says "everything".
func (s *Server) exportWatch(ch core.Change) {
	_, wasDir := s.world.ContextOf(ch.Old)
	_, isDir := s.world.ContextOf(ch.New)
	var what invalidation
	if !wasDir && !isDir && !ch.Dir.IsUndefined() && !s.coarse.Load() {
		what = invalidation{dir: ch.Dir.ID, name: ch.Name}
	}
	s.bump(what)
	if isDir {
		s.WatchExport(ch.New)
	}
}

// Served returns the number of wire requests handled so far (a batch
// counts once — that is the point of batching).
func (s *Server) Served() int { return int(s.served.Load()) }

// Resolved returns the number of names resolved so far (every element of a
// batch counts).
func (s *Server) Resolved() int { return int(s.resolved.Load()) }

// Close stops the listener, closes active connections, and waits for
// connection handlers started by Serve to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.listener
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	s.wg.Wait()
}
