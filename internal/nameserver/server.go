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
	// s.mu, so an advance and its log entry stay one step.
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
	closed   bool
	routes   *RouteInfo
	wg       sync.WaitGroup

	// log records every revision advance; push subscribers and replication
	// followers are cursors on it (commitlog.go). Appended to under mu.
	log commitLog
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
	}
	s.log.grew.L, s.log.settled.L = &s.log.mu, &s.log.mu
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

	// Push invalidation. A subscribed connection is a cursor on the server's
	// commit log, where every revision advance is appended before the new
	// revision becomes readable (commitlog.go): whoever next holds the write
	// token — a responder, or the pusher the append woke — encodes every
	// entry from pos to the head ahead of anything else, so in the
	// connection's stream no response at revision r precedes the
	// invalidation of a mutation committed at or below r.
	subscribed bool           // guarded by wtoken
	pos        uint64         // guarded by wtoken: log position of the next frame owed
	gone       bool           // guarded by the log's mutex: ServeConn is done, the pusher must go
	pusher     sync.WaitGroup // the pusher goroutine, started by the first subscribe
}

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

// owed reports whether the log holds entries st has not been sent: for a
// subscriber one atomic load, for anyone else none. The caller holds the
// write token.
func (s *Server) owed(st *connState) bool {
	return st.subscribed && s.log.head.Load() != st.pos
}

// drain encodes every log entry st is owed into the write buffer, one frame
// each — or one frame for all of them when st fell too far behind (see
// commitLog.next). The caller holds the write token; the log's mutex is
// never held across an encode.
func (s *Server) drain(st *connState) error {
	for {
		e, after, ok := s.log.next(st.pos)
		if !ok {
			return nil
		}
		st.pos = after
		frame := response{Rev: e.rev, Invalidation: true, Dir: uint64(e.dir), Name: string(e.name)}
		if err := st.encode(&frame); err != nil {
			return err
		}
	}
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
	}
	st.br = bufio.NewReader(st)
	st.bw = bufio.NewWriter(&st.wd)
	if !negotiateServer(conn, st.br) {
		// The peer vanished before its first byte, died mid-handshake, or
		// speaks another version and has been told so.
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveRequests(st)
		}()
	}
	wg.Wait()
	// The workers have drained: the conn is dead, and nobody is left to
	// subscribe. Release the pusher, if there is one, and join it.
	s.log.release(&st.gone)
	st.pusher.Wait()
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

// pushInvalidations is a subscribed connection's push goroutine: parked on
// the log until the head moves past seen, it takes the write token, encodes
// whatever the connection is still owed and flushes at once — a
// subscriber's staleness bound is a frame's flight time, whatever else the
// connection is doing. Frames share the write token with ordinary
// responses, so a push can never tear a response mid-message; a responder
// that got to the token first has already sent them (see respond), and the
// pusher finds nothing to do. It exits when ServeConn releases it.
func (s *Server) pushInvalidations(st *connState, seen uint64) {
	for {
		var ok bool
		if seen, ok = s.log.await(seen, &st.gone); !ok {
			return
		}
		st.wtoken <- struct{}{}
		var err error
		if s.owed(st) {
			if err = s.drain(st); err == nil {
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
// the write token, behind every log entry appended before it: the
// response's revision was read after those entries were appended (see bump),
// so nothing it vouches for can overtake the news that made it stale. The
// steady path pays one atomic load for that. Only bytes with nobody behind
// them to flush them leave at once: invalidation frames (a subscriber's
// staleness bound is their flight time), or a response encoded while
// another worker is parked in the conn's Read. Any other response is
// flushed by its own worker at its next flush point (see connState), so a
// pipelined burst rides one syscall.
//
// With subscribe set, resp acknowledges a subscription, and the connection
// takes its cursor here, under the write token, at the log's head: the ack
// — which carries the revision the subscription starts from, read under
// the mutex appends hold so the two agree — is encoded before any frame
// the cursor entitles the connection to can be, and from there on it is
// owed every entry, in order. The client starts from a known point and
// misses nothing.
func (s *Server) respond(st *connState, resp *response, subscribe bool) {
	st.wtoken <- struct{}{}
	var err error
	pushed := s.owed(st)
	if pushed {
		err = s.drain(st)
	}
	if subscribe {
		s.mu.Lock()
		st.pos, resp.Rev = s.log.head.Load(), s.rev.Load()
		s.mu.Unlock()
		if !st.subscribed {
			st.subscribed = true
			st.pusher.Add(1)
			//namingvet:allocfree-exempt -- cold: once per subscription
			go func(seen uint64) {
				defer st.pusher.Done()
				s.pushInvalidations(st, seen)
			}(st.pos)
		}
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
// fresh binding with a stale revision, deferring a revision-tracked
// cache's purge by one round-trip and breaking its staleness bound. If the
// revision moved while resolving, the resolution raced a binding
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
func (s *Server) Bump() { s.bump(commit{}) }

// bump commits one revision advance: its entry is appended to the log —
// waking the pushers and appliers parked there — and only then does the new
// revision become readable. A response that carries the new revision
// therefore finds the entry already owed to its own connection, and is
// written behind it.
//
//namingvet:revbump
func (s *Server) bump(what commit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	what.rev = s.rev.Load() + 1
	s.log.append(what)
	s.rev.Store(what.rev)
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
		s.log.append(commit{rev: rev})
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
	var what commit
	if !wasDir && !isDir && !ch.Dir.IsUndefined() && !s.coarse.Load() {
		what = commit{dir: ch.Dir.ID, name: ch.Name}
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

// Close stops the listener, closes active connections, releases the log's
// followers, and waits for connection handlers started by Serve to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.log.release(&s.log.closed)
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
