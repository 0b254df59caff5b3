package nameserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"namecoherence/internal/core"
	"namecoherence/internal/lru"
	"namecoherence/internal/varenc"
)

// RemoteError is a resolution failure reported by the server.
type RemoteError struct {
	// Msg is the server-side error message.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// ErrClientClosed reports a call against a closed Client.
var ErrClientClosed = errors.New("nameserver: client closed")

// clientWriteTimeout bounds each request write so a peer that stops
// reading cannot pin a writer forever. Generous on purpose: a request is
// small, so a write that takes this long means a dead peer, not a slow
// one. With a per-call timeout configured the write bound tightens to it.
const clientWriteTimeout = time.Minute

// pendingCall is one in-flight request, parked in the pending table until
// a reader delivers the response tagged with its ID. Records are reused
// through callPool, so done is made once per record, not once per call.
// Completion is one send on done, by whoever removes the call from
// pending. A call that someone else removed receives that send before its
// record goes back (see putCall): a signal left in the channel would
// complete the record's next call at once, with an empty answer.
type pendingCall struct {
	req  request
	resp response
	err  error
	done chan struct{} // capacity 1; signalled exactly once per call
}

// callPool holds idle call records.
var callPool = sync.Pool{New: func() any {
	return &pendingCall{done: make(chan struct{}, 1)}
}}

// putCall returns a finished call's record to callPool. Its caller has
// received the completion signal, or the call never reached anyone who
// would send one, so nobody else holds it. Clearing resp drops the Results
// array the answer handed to the caller, so no later call parses into it.
func putCall(pc *pendingCall) {
	*pc = pendingCall{done: pc.done}
	callPool.Put(pc)
}

// complete delivers pc's verdict. The caller has just taken pc out of the
// pending table, which is what makes it the one sender.
func (pc *pendingCall) complete(err error) {
	pc.err = err
	pc.done <- struct{}{}
}

// Client is a connection to a name server with an optional, never
// invalidated resolution cache (WithCache). One Client multiplexes any
// number of concurrent callers over a single connection: each call is tagged with a fresh ID and parked in a
// pending table, then the caller itself encodes the request under a
// capacity-1 write token — and, when the connection is carrying a
// pipeline, yields the processor once and leaves the flush to the last
// caller back from a yield, so the callers a leader has just woken append
// their frames and a burst of requests rides one syscall (see send).
// Responses come back in whatever order the server finished them and are
// dispatched by tag. Reading is leader/followers: one waiting caller at a
// time holds the read token and decodes for everyone — every complete
// frame its read brought in, not only up to its own — so one response
// burst wakes one group of callers, and the serial case pays no goroutine
// handoffs at all. A leader stuck in a read cannot honor its own timer, so with
// WithTimeout the leader arms the connection's read deadline with its
// call's expiry instead — a deadline-failed read poisons the client
// exactly as an expired call would have (see lead). The pending table lives under its own
// short-section mutex and the cache and counters under another, so Stats
// and cache hits never wait behind a slow server and no mutex is ever
// held across wire I/O (lockblock).
type Client struct {
	conn    net.Conn
	bw      *bufio.Writer // guarded by wtoken; drains through wd
	wd      deadlineWriter
	br      *bufio.Reader // guarded by rtoken (and by NewClient during negotiation); fills through Read
	timeout time.Duration // per-call bound; immutable after the options run

	wtoken chan struct{} // capacity 1; held while encoding and flushing
	rtoken chan struct{} // capacity 1; held by the leading reader
	wbuf   []byte        // binary encode scratch; guarded by wtoken
	rresp  response      // decode target for frames no live call owns; guarded by rtoken
	rbuf   []byte        // binary frame scratch; guarded by rtoken
	errs   strIntern     // decode-side intern table (error strings, pushed names); guarded by rtoken

	// inflight counts the calls between registering and returning (see
	// call): more than two makes a pipeline. yielding counts the pipelined
	// callers between the start and the end of their yield (see send): the
	// one that brings it back to zero flushes.
	inflight atomic.Int32
	yielding atomic.Int32

	closeOnce sync.Once

	// pmu guards the multiplexing table only; never held across I/O.
	pmu     sync.Mutex
	pending map[uint64]*pendingCall
	nextID  uint64
	broken  error // sticky: once the stream is unusable, new calls fail fast

	mu     sync.Mutex // guards the fields below; never held across I/O
	cache  *lru.Cache[string, core.Entity]
	keyBuf []byte // the cache key being rendered (AppendWireKey)
	m      ClientMetrics
	// subscription state (see Subscribe): push frames are consumed by a
	// standing reader goroutine, joined by Close via readerWG.
	subscribed bool
	onInval    func(Invalidation)

	readerWG sync.WaitGroup
}

// ClientOption configures a Client.
type ClientOption interface {
	apply(*Client)
}

type cacheOption int

func (o cacheOption) apply(c *Client) {
	c.cache = lru.New[string, core.Entity](int(o))
}

// WithCache enables a client-side resolution cache of at most n entries,
// evicting by internal/lru's SIEVE. The cache is never invalidated; it
// models the (coherence-agnostic) name caches common in directory services.
func WithCache(n int) ClientOption {
	return cacheOption(n)
}

type timeoutOption time.Duration

func (o timeoutOption) apply(c *Client) { c.timeout = time.Duration(o) }

// WithTimeout bounds every call: a per-call timer starts when the call is
// issued and, on expiry, fails that call with a timeout error (satisfying
// errors.Is(err, os.ErrDeadlineExceeded) and net.Error's Timeout) and
// poisons the client — the abandoned response may still arrive and is
// discarded, but the connection's pipeline can no longer be trusted to be
// drained promptly, so subsequent calls fail fast and the caller must
// discard the client. Per-call timers replace conn.SetDeadline, which
// would race across concurrent calls sharing the connection.
func WithTimeout(d time.Duration) ClientOption {
	return timeoutOption(d)
}

// NewClient wraps an established connection. The client spawns no
// goroutines: callers themselves take turns decoding (see call).
//
// NewClient runs the one-byte version handshake before returning (the
// server must already be serving the connection). A failed handshake
// poisons the client — every call reports the failure — rather than error
// out here, keeping the signature; Dial surfaces the error directly.
func NewClient(conn net.Conn, opts ...ClientOption) *Client {
	c := &Client{
		conn:    conn,
		wtoken:  make(chan struct{}, 1),
		rtoken:  make(chan struct{}, 1),
		pending: make(map[uint64]*pendingCall),
	}
	c.br = bufio.NewReader(c)
	for _, o := range opts {
		o.apply(c)
	}
	// A hung peer must fail a write within the call timeout, or within
	// clientWriteTimeout without one (see deadlineWriter).
	c.wd = deadlineWriter{conn: conn, bound: clientWriteTimeout}
	if c.timeout > 0 && c.timeout < c.wd.bound {
		c.wd.bound = c.timeout
	}
	c.bw = bufio.NewWriter(&c.wd)
	if err := c.negotiate(); err != nil {
		c.fail(fmt.Errorf("version handshake: %w", err))
	}
	return c
}

// negotiate sends the protocol version this client speaks and requires the
// server to answer with the same byte. The handshake is bounded by the
// call timeout (or the dial default): a server that never answers must
// fail the client promptly, not hang it.
func (c *Client) negotiate() error {
	d := defaultDialTimeout
	if c.timeout > 0 && c.timeout < d {
		d = c.timeout
	}
	_ = c.conn.SetDeadline(time.Now().Add(d))
	hello := [1]byte{binaryMagic}
	if _, err := c.conn.Write(hello[:]); err != nil {
		return fmt.Errorf("send version: %w", err)
	}
	theirs, err := c.br.ReadByte()
	if err != nil {
		return fmt.Errorf("read server version: %w", err)
	}
	_ = c.conn.SetDeadline(time.Time{})
	if theirs != binaryMagic {
		return fmt.Errorf("%w: client speaks 0x%02X, server speaks 0x%02X", ErrProtocolVersion, binaryMagic, theirs)
	}
	return nil
}

// Err returns the client's sticky failure: nil while the stream is
// healthy, the poisoning error once it is not (handshake failure,
// transport death, timeout poisoning, or Close).
func (c *Client) Err() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.broken
}

// defaultDialTimeout bounds Dial's connection attempt. A raw net.Dial is
// unbounded (conndeadline); callers wanting a different bound use
// DialTimeout.
const defaultDialTimeout = 10 * time.Second

// Dial connects to a server listening at addr. The connection attempt is
// bounded by a default timeout.
func Dial(network, addr string, opts ...ClientOption) (*Client, error) {
	return DialTimeout(network, addr, defaultDialTimeout, opts...)
}

// DialTimeout is Dial with a bound on the connection attempt itself.
func DialTimeout(network, addr string, timeout time.Duration, opts ...ClientOption) (*Client, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial name server: %w", err)
	}
	c := NewClient(conn, opts...)
	if err := c.Err(); err != nil {
		// The handshake failed; don't hand out a poisoned client.
		_ = c.Close()
		return nil, fmt.Errorf("dial name server: %w", err)
	}
	return c, nil
}

// send encodes pc's request into the write buffer and sees it onto the
// wire. It is entered holding the write token and returns without it. A
// request that carries a non-canonical name (request.checkCanonical) or
// would not fit in a frame is refused here, and nothing of it is written.
//
// Buffered bytes are flushed by whoever is about to stop using the CPU,
// never per frame. A caller outside a pipeline is about to wait for its
// own response: it flushes at once — one write per call, exactly the
// serial protocol. A pipelined caller (see call for what counts as a
// pipeline) instead lets go of the token and yields the processor once:
// the callers a leader has just woken are runnable, and each appends its
// own frame before the scheduler comes back here. The callers that yield
// together are counted, and only the last of them back from its yield
// takes the token again and flushes; the others return at once, their
// frames in the buffer. So a burst of woken callers leaves in one syscall
// even when some of them come back before the rest have run.
//
// Batching is opportunistic, delivery is not. At any GOMAXPROCS, if nobody
// else ran during the yield the caller is the last back and flushes alone.
// A caller that is not the last leaves its frame to one still yielding,
// and every yielder returns, so the last one back finds the frame
// buffered. And when the token is busy on the way back, its holder took it
// after our frame was buffered and is past every point where a call can
// be abandoned (only the wait for the token gives up on a timeout): it
// leaves through this same tail, flushing what it finds or handing on to a
// later yielder or holder in turn, and the last of them finds the token
// free. A holder whose own request is refused leaves the same way: it
// writes none of its own, but flushes what it finds. So the busy
// case returns rather than queue — which is what keeps a caller whose
// request may already be at the server from ever blocking here instead of
// reading: over an unbuffered transport the server's flush, the token
// holder's write and this wait would otherwise close a cycle.
func (c *Client) send(pc *pendingCall, pipelined bool) error {
	// Check, then append-encode into the token-guarded scratch: the
	// request's bytes are built and written with zero heap traffic.
	refused := pc.req.checkCanonical()
	if refused == nil {
		c.wbuf = appendRequest(c.wbuf[:0], &pc.req)
		if len(c.wbuf) > maxFrame {
			refused = errRequestTooBig
		}
	}
	if refused != nil {
		// A name the far side would resolve differently (§6), or a frame
		// the server would refuse and drop the stream for: refuse it here
		// instead, having written none of it (see call). Frames that
		// yielders left behind a busy token still leave, as below.
		var err error
		if c.bw.Buffered() > 0 {
			err = c.bw.Flush()
		}
		<-c.wtoken
		if err != nil {
			return err
		}
		return refused
	}
	err := writeFrame(c.bw, c.wbuf)
	if err == nil && pipelined {
		c.yielding.Add(1)
		<-c.wtoken
		runtime.Gosched()
		if c.yielding.Add(-1) > 0 {
			return nil
		}
		select {
		case c.wtoken <- struct{}{}:
		default:
			return nil
		}
	}
	if err == nil && c.bw.Buffered() > 0 {
		err = c.bw.Flush()
	}
	<-c.wtoken
	return err
}

// lead decodes responses while holding the read token, dispatching each
// to the call wearing its tag, until pc completes and the read buffer holds
// no complete frame, or the stream dies. So the whole of what one read
// brought in is delivered by one leader, and the callers it wakes send
// their next requests as one burst (see send); a leader that returned at
// its own frame would leave the rest to later leaders, each waking — and
// flushing for — a slice of it. lead never reads the connection for a
// frame once its own call is done: a partial frame is the next leader's.
// With no deadline an idle read blocks until the server speaks; Close
// unblocks it by closing the conn (see Read). With a per-call timeout the
// leader cannot select on its timer while blocked in the read, so it arms
// the connection's read deadline with its own call's expiry instead: a
// deadline-failed read poisons the client exactly as withdraw would have —
// a call timeout always poisons, so trading the torn stream for a dead conn
// loses nothing. Each leader re-arms on taking the token, so the deadline
// in force is always the current leader's. lead reports whether it received
// pc's completion signal: it has not when the stream died first, and then
// the caller receives it (fail leaves no call pending, and whoever took pc
// out of the table — this reader, or a concurrent fail — delivers).
func (c *Client) lead(pc *pendingCall, deadline time.Time) bool {
	if !deadline.IsZero() {
		_ = c.conn.SetReadDeadline(deadline)
	}
	done := false
	for {
		if !done {
			select {
			case <-pc.done:
				done = true
			default:
			}
		}
		if done && !frameBuffered(c.br) {
			return true
		}
		if err := c.readOne(); err != nil {
			c.fail(recvFailure(err))
			return done
		}
	}
}

// Read is the decoder's source, not for callers: br fills through it, and
// it forwards to the conn. It is the client's idle read — the one a
// leader without a timeout blocks in until the server speaks — and Close
// unblocks it by closing the conn, so conndeadline exempts it as it does
// the server's connState.Read.
func (c *Client) Read(p []byte) (int, error) {
	return c.conn.Read(p)
}

// readOne reads and delivers one frame while holding the read token. A
// response for a live call is parsed directly into that call's own
// response struct — so the Results backing array the parse fills belongs
// to the caller outright, never aliased by the scratch the next frame
// reuses. Push frames and responses to abandoned calls parse into the
// token-guarded scratch instead.
func (c *Client) readOne() error {
	body, err := readFrame(c.br, &c.rbuf)
	if err != nil {
		return err
	}
	// A malformed ID reads as 0 and fails in the scratch parse below.
	r := varenc.NewReader(body)
	if id := r.Uvarint(); id != 0 {
		c.pmu.Lock()
		pc := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if pc != nil {
			// pc is already out of the table, so fail cannot strand it: a
			// malformed answer is delivered as the call's verdict here, and
			// the stream dies after.
			err := parseResponse(body, &pc.resp, &c.errs)
			pc.complete(err)
			return err
		}
	}
	// ID 0 (a push frame — clients never assign it) or an abandoned
	// call: parse into the scratch, both to validate the stream and, for
	// pushes, to consume the invalidation.
	c.rresp = response{}
	if err := parseResponse(body, &c.rresp, &c.errs); err != nil {
		return err
	}
	if c.rresp.Invalidation {
		c.invalidate(&c.rresp)
	}
	return nil
}

// recvFailure classifies a dead read stream for fail: a deadline read
// poisons like a call timeout, EOF means the server went away, anything
// else is a transport fault.
func recvFailure(err error) error {
	var nerr net.Error
	switch {
	case errors.As(err, &nerr) && nerr.Timeout():
		return fmt.Errorf("poisoned by call timeout: %w", os.ErrDeadlineExceeded)
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("server closed: %w", err)
	default:
		return fmt.Errorf("recv response: %w", err)
	}
}

// invalidate consumes a push invalidation frame. It answers no call: it is
// counted and handed to the subscriber's callback, outside c.mu.
func (c *Client) invalidate(resp *response) {
	c.mu.Lock()
	c.m.Invalidations++
	onInval := c.onInval
	c.mu.Unlock()
	if onInval != nil {
		onInval(Invalidation{Rev: resp.Rev, Dir: core.EntityID(resp.Dir), Name: core.Name(resp.Name)})
	}
}

// fail poisons the client with err: every pending call fails now, future
// calls fail fast, and the connection is closed (unhanging any reader and
// any in-progress write). Only the first error sticks; later calls keep
// reporting it.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	err = c.broken
	stranded := make([]*pendingCall, 0, len(c.pending))
	for id, pc := range c.pending {
		delete(c.pending, id)
		stranded = append(stranded, pc)
	}
	c.pmu.Unlock()
	for _, pc := range stranded {
		pc.complete(err)
	}
	_ = c.conn.Close()
}

// reqLabel describes a request for error messages. Only failure paths pay
// for the formatting — building the label eagerly would tax every call on
// the wire's hot path.
func reqLabel(req *request) string {
	switch {
	case req.Routes:
		return "routes"
	case req.Subscribe:
		return "subscribe"
	case req.Op == OpBind:
		return fmt.Sprintf("bind %q", req.Name)
	case req.Op == OpUnbind:
		return fmt.Sprintf("unbind %q", req.Name)
	case req.Op == OpMkcontext:
		return fmt.Sprintf("mkcontext %q", req.Name)
	case req.Paths != nil:
		return fmt.Sprintf("resolve batch of %d", len(req.Paths))
	default:
		return fmt.Sprintf("resolve %q", req.Path.String())
	}
}

// call runs one tagged round-trip: register the call in the pending
// table, write the request ourselves under the write token, then wait for
// a reader to deliver the response wearing its tag — becoming that reader
// when no one else is leading. With a timeout configured the call is
// bounded everywhere: a timer covers the waits the caller can select on,
// and the connection's read deadline covers the leader's blocking decode
// (see lead and WithTimeout). The call's record comes from callPool and
// goes back when call returns (see pendingCall).
func (c *Client) call(req request) (response, error) {
	pc := callPool.Get().(*pendingCall)
	defer putCall(pc)
	pc.req = req
	c.pmu.Lock()
	if c.broken != nil {
		err := c.broken
		c.pmu.Unlock()
		return response{}, fmt.Errorf("%s: %w", reqLabel(&pc.req), err)
	}
	c.nextID++
	pc.req.ID = c.nextID
	c.pending[pc.req.ID] = pc
	c.pmu.Unlock()
	// At least two other calls in flight is what counts as a pipeline (see
	// send). A call is in flight from here until it returns, answered or
	// not: a leader delivers a whole burst at once (see lead), so the
	// callers it woke are out of the pending table but still on their way
	// back, and they are the ones about to send. The count is a proxy for
	// how many callers share the connection. With one other call it reads
	// "both of two callers accounted for": a yield then gathers nobody and
	// only lets every unrelated runnable goroutine's traffic overtake this
	// request (DESIGN §5a has the measurement that drew the line here).
	pipelined := c.inflight.Add(1) > 2
	defer c.inflight.Add(-1)

	// The timer is created lazily, on the first wait that actually needs
	// to select on it: the uncontended paths — write token free, caller
	// leads its own read — never do, and the serial case skips the
	// allocation entirely. Without a timeout timeoutC stays nil, and a nil
	// channel never fires: the same waits then end only on their own events.
	var deadline time.Time
	var timer *time.Timer
	var timeoutC <-chan time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	arm := func() {
		if timer == nil && c.timeout > 0 {
			timer = time.NewTimer(time.Until(deadline))
			timeoutC = timer.C
		}
	}
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()

	select {
	case c.wtoken <- struct{}{}:
		// Uncontended fast path: the token was free.
	default:
		arm()
		select {
		case c.wtoken <- struct{}{}:
		case <-pc.done:
			// The client failed before we could write.
			return c.finish(pc)
		case <-timeoutC:
			return c.withdraw(pc, os.ErrDeadlineExceeded)
		}
	}
	if err := c.send(pc, pipelined); errors.Is(err, errRequestTooBig) || errors.Is(err, ErrNotCanonical) {
		return c.withdraw(pc, err)
	} else if err != nil {
		c.fail(fmt.Errorf("send request: %w", err))
		// fail leaves no call pending, but the one that took pc out of the
		// table — a reader, or a concurrent fail — may still be delivering.
		<-pc.done
		return c.finish(pc)
	}

	// Fast path: the read token is usually free in the serial case — lead
	// immediately.
	select {
	case c.rtoken <- struct{}{}:
		return c.leadFor(pc, deadline)
	default:
	}
	arm()
	select {
	case <-pc.done:
		return c.finish(pc)
	case c.rtoken <- struct{}{}:
		return c.leadFor(pc, deadline)
	case <-timeoutC:
		return c.withdraw(pc, os.ErrDeadlineExceeded)
	}
}

// leadFor leads the read until pc has completed (see lead), hands the read
// token on, and unpacks pc.
func (c *Client) leadFor(pc *pendingCall, deadline time.Time) (response, error) {
	received := c.lead(pc, deadline)
	<-c.rtoken
	if !received {
		<-pc.done
	}
	return c.finish(pc)
}

// finish unpacks a delivered call.
func (c *Client) finish(pc *pendingCall) (response, error) {
	if pc.err != nil {
		return response{}, fmt.Errorf("%s: %w", reqLabel(&pc.req), pc.err)
	}
	return pc.resp, nil
}

// withdraw fails pc with err, alone, taking it out of the pending table
// itself. If a reader (or fail) took it out first, the call is
// mid-delivery and the race is conceded: the response or verdict that won
// stands. A call that timed out (os.ErrDeadlineExceeded) also poisons the
// client: the wire may still owe us the late response, so the stream's
// pipeline depth is no longer known and the only safe sequel is a fresh
// connection. A request refused before it was sent (errRequestTooBig,
// ErrNotCanonical) left the stream as it was.
func (c *Client) withdraw(pc *pendingCall, err error) (response, error) {
	c.pmu.Lock()
	_, waiting := c.pending[pc.req.ID]
	if waiting {
		delete(c.pending, pc.req.ID)
		if c.broken == nil && errors.Is(err, os.ErrDeadlineExceeded) {
			c.broken = fmt.Errorf("poisoned by call timeout: %w", err)
		}
	}
	c.pmu.Unlock()
	if !waiting {
		<-pc.done
		return c.finish(pc)
	}
	return response{}, fmt.Errorf("%s: %w", reqLabel(&pc.req), err)
}

// Resolve resolves the compound name: from the cache when there is one and
// it holds the name, else at the server (see ResolveRev), keeping the
// answer. Names that are not wire-canonical fail client-side with
// ErrNotCanonical before they can become a cache key or cross the wire.
// Only a resolution the server satisfied counts as a miss; a transport or
// remote failure is not a cache miss served.
func (c *Client) Resolve(p core.Path) (core.Entity, error) {
	var key string
	if c.cache != nil {
		c.mu.Lock()
		buf, err := AppendWireKey(c.keyBuf[:0], p)
		c.keyBuf = buf
		if err != nil {
			c.mu.Unlock()
			return core.Undefined, err
		}
		if e, ok := c.cache.Get(string(buf)); ok {
			c.m.Hits++
			c.mu.Unlock()
			return e, nil
		}
		key = string(buf)
		c.mu.Unlock()
	}
	e, _, _, err := c.ResolveRev(p)
	if err != nil {
		return core.Undefined, err
	}
	c.mu.Lock()
	c.m.Misses++
	if c.cache != nil {
		c.cache.Put(key, e)
	}
	c.mu.Unlock()
	return e, nil
}

// ResolveRev resolves p at the server, bypassing the client's own cache,
// and returns with the entity what a cache spanning many connections needs
// to keep it coherent (cluster clients drive theirs with it): the binding
// revision the response carried, and the server's entity for the directory
// p's final component was looked up in — 0 when the server cannot say, in
// which case every pushed Invalidation concerns the answer.
func (c *Client) ResolveRev(p core.Path) (e core.Entity, dir core.EntityID, rev uint64, err error) {
	resp, err := c.call(request{Path: p})
	if err != nil {
		return core.Undefined, 0, 0, err
	}
	if resp.Err != "" {
		return core.Undefined, 0, resp.Rev, &RemoteError{Msg: resp.Err}
	}
	return core.Entity{ID: core.EntityID(resp.Ent), Kind: core.Kind(resp.Kind)}, core.EntityID(resp.Dir), resp.Rev, nil
}

// ResolveBatchRev resolves every path in one round-trip, bypassing the
// client's own cache, and returns the batch's binding revision. Results
// are in argument order; per-name failures are in the results. A batch
// whose request or answer would not fit in one frame fails whole, as this
// call's own error: a *RemoteError when the server refused the answer.
func (c *Client) ResolveBatchRev(paths []core.Path) ([]BatchResult, uint64, error) {
	resp, err := c.call(request{Paths: paths})
	if err != nil {
		return nil, 0, err
	}
	if resp.Err != "" {
		// The server refused the batch as a whole (see connState.encode).
		return nil, resp.Rev, &RemoteError{Msg: resp.Err}
	}
	if len(resp.Results) != len(paths) {
		return nil, 0, fmt.Errorf("resolve batch: got %d results for %d paths", len(resp.Results), len(paths))
	}
	out := make([]BatchResult, len(paths))
	for k, res := range resp.Results {
		if res.Err != "" {
			out[k] = BatchResult{Entity: core.Undefined, Err: &RemoteError{Msg: res.Err}}
			continue
		}
		out[k] = BatchResult{Entity: core.Entity{ID: core.EntityID(res.ID), Kind: core.Kind(res.Kind)}, Dir: core.EntityID(res.Dir)}
	}
	return out, resp.Rev, nil
}

// BatchResult is one outcome of a batched resolution.
type BatchResult struct {
	// Entity is the resolved entity (Undefined on failure).
	Entity core.Entity
	// Err is the per-name failure (*RemoteError), nil on success.
	Err error
	// Dir is the server's entity for the directory the name's final
	// component was looked up in (see ResolveRev); 0 for an answer out of
	// ResolveBatch's cache.
	Dir core.EntityID
}

// ResolveBatch resolves every path in one round-trip (cache hits are
// answered locally; duplicates cross the wire once, see ResolveBatchRev).
// Results are in argument order. The returned error reports a transport
// failure; per-name resolution failures are in the results.
func (c *Client) ResolveBatch(paths []core.Path) ([]BatchResult, error) {
	out := make([]BatchResult, len(paths))

	// Answer what we can from the cache; collect the rest, deduplicated.
	// Non-canonical names fail in their result slot before touching the
	// cache or the wire — a bad name must not become a cache key.
	need := make(map[string][]int)
	var keys []string
	var missed []core.Path
	c.mu.Lock()
	for i, p := range paths {
		buf, err := AppendWireKey(c.keyBuf[:0], p)
		c.keyBuf = buf
		if err != nil {
			out[i] = BatchResult{Entity: core.Undefined, Err: err}
			continue
		}
		if c.cache != nil {
			if e, ok := c.cache.Get(string(buf)); ok {
				c.m.Hits++
				out[i] = BatchResult{Entity: e}
				continue
			}
		}
		key := string(buf)
		if _, seen := need[key]; !seen {
			keys = append(keys, key)
			missed = append(missed, p)
		}
		need[key] = append(need[key], i)
	}
	c.mu.Unlock()
	if len(missed) == 0 {
		return out, nil
	}

	results, _, err := c.ResolveBatchRev(missed)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for k, res := range results {
		if res.Err == nil && c.cache != nil {
			c.cache.Put(keys[k], res.Entity)
		}
		for _, i := range need[keys[k]] {
			out[i] = res
			if res.Err == nil {
				// Misses count per slot (duplicates included) and only for
				// slots an uncached resolution actually satisfied.
				c.m.Misses++
			}
		}
	}
	c.mu.Unlock()
	return out, nil
}

// Routes fetches the routing table of a sharded deployment from the
// server. Servers outside a cluster answer with a RemoteError.
func (c *Client) Routes() (*RouteInfo, error) {
	resp, err := c.call(request{Routes: true})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, &RemoteError{Msg: resp.Err}
	}
	if resp.Routes == nil {
		return nil, &RemoteError{Msg: "empty routing table"}
	}
	return resp.Routes, nil
}

// ClientMetrics is a snapshot of a Client's counters.
type ClientMetrics struct {
	Hits int // lookups the cache answered
	// Misses counts uncached lookups the server satisfied: a transport or
	// remote failure is not a miss.
	Misses        int
	Invalidations int // push frames consumed (0 without Subscribe)
}

// Metrics returns the client's counters.
func (c *Client) Metrics() ClientMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

// Close fails every in-flight and future call with ErrClientClosed and
// closes the connection, which also unblocks any caller leading a read —
// including the standing reader a subscription starts, which is then
// joined so no goroutine outlives the client.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.fail(ErrClientClosed)
	})
	c.readerWG.Wait()
	return nil
}
