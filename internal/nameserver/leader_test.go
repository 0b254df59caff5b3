package nameserver

// The client half of DESIGN §5a's flush rule, as events: a leader hands out
// everything its read brought in before it lets go of the read token, and
// the call records the mux reuses never carry one call's state into the
// next.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"namecoherence/internal/core"
)

// burstConn is a client's connection to a scripted server: each Read
// returns the next chunk the test queued, whole, so the test decides
// exactly what one read brings in. Writes are kept for the test to read the
// requests from. Deadlines are accepted and ignored: a read the script does
// not feed blocks until Close, so a leader that reads when it should not
// shows as a hang, not as a timeout.
type burstConn struct {
	net.Conn // nil: the client calls only the methods below
	chunks   chan []byte
	reading  chan struct{} // one token per Read entered
	wrote    chan struct{} // one token per Write
	closed   chan struct{}
	once     sync.Once
	reads    atomic.Int32 // Reads entered

	mu      sync.Mutex
	written []byte
}

func newBurstConn() *burstConn {
	return &burstConn{
		chunks:  make(chan []byte, 4),
		reading: make(chan struct{}, 64),
		wrote:   make(chan struct{}, 1024),
		closed:  make(chan struct{}),
	}
}

func (b *burstConn) Read(p []byte) (int, error) {
	b.reads.Add(1)
	b.reading <- struct{}{}
	select {
	case chunk := <-b.chunks:
		if len(chunk) > len(p) {
			panic("burstConn: chunk larger than the reader's buffer")
		}
		return copy(p, chunk), nil
	case <-b.closed:
		return 0, net.ErrClosed
	}
}

func (b *burstConn) Write(p []byte) (int, error) {
	select {
	case <-b.closed:
		return 0, net.ErrClosed
	default:
	}
	b.mu.Lock()
	b.written = append(b.written, p...)
	b.mu.Unlock()
	b.wrote <- struct{}{}
	return len(p), nil
}

func (b *burstConn) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

func (b *burstConn) SetDeadline(time.Time) error      { return nil }
func (b *burstConn) SetReadDeadline(time.Time) error  { return nil }
func (b *burstConn) SetWriteDeadline(time.Time) error { return nil }

// awaitRequests waits until n requests have been written past the hello
// byte and returns them in the order they were written.
func (b *burstConn) awaitRequests(t *testing.T, n int) []request {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		b.mu.Lock()
		stream := bytes.Clone(b.written)
		b.mu.Unlock()
		var reqs []request
		if len(stream) > 0 {
			br := bufio.NewReader(bytes.NewReader(stream[1:]))
			var buf []byte
			for {
				body, err := readFrame(br, &buf)
				if err != nil {
					break
				}
				var req request
				if err := parseRequest(body, &req, new(workerScratch)); err != nil {
					t.Fatal(err)
				}
				reqs = append(reqs, req)
			}
		}
		if len(reqs) >= n {
			return reqs
		}
		select {
		case <-b.wrote:
		case <-timeout:
			t.Fatalf("%d requests written, want %d", len(reqs), n)
		}
	}
}

// awaitRead waits for the next Read to be entered.
func (b *burstConn) awaitRead(t *testing.T) {
	t.Helper()
	select {
	case <-b.reading:
	case <-time.After(10 * time.Second):
		t.Fatal("no read entered")
	}
}

// responseFrames frames one response per request, each answering with
// the entity numbered by the request's last path component.
func responseFrames(t *testing.T, reqs []request) []byte {
	t.Helper()
	var out, body []byte
	for _, req := range reqs {
		var n uint64
		if _, err := fmt.Sscanf(string(req.Path[len(req.Path)-1]), "f%d", &n); err != nil {
			t.Fatal(err)
		}
		body = appendResponse(body[:0], &response{ID: req.ID, Ent: 100 + n, Kind: uint8(core.KindObject)})
		out = binary.AppendUvarint(out, uint64(len(body)))
		out = append(out, body...)
	}
	return out
}

// TestLeaderDeliversWholeBurst: the first read a leader makes brings in
// the answers to every call in flight, its own first. When its call
// returns, every other call has been answered too, out of that one read;
// nobody read the connection again. A trailing partial frame is not a
// reason to read again: the leader returns, well inside its timeout.
func TestLeaderDeliversWholeBurst(t *testing.T) {
	const calls = 8
	partialPush := func() []byte {
		body := appendResponse(nil, &response{Rev: 9, Invalidation: true})
		frame := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
		return frame[:len(frame)-1]
	}()
	for _, tc := range []struct {
		name string
		tail []byte
		opts []ClientOption
	}{
		{"whole-frames", nil, nil},
		{"trailing-partial-frame", partialPush, []ClientOption{WithTimeout(30 * time.Second)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := newBurstConn()
			conn.chunks <- []byte{binaryMagic}
			c := NewClient(conn, tc.opts...)
			t.Cleanup(func() { _ = c.Close() })
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			conn.awaitRead(t) // the handshake's
			answers := make([]chan error, calls)
			resolve := func(i int) {
				answers[i] = make(chan error, 1)
				go func() {
					e, err := c.Resolve(core.ParsePath(fmt.Sprintf("dir/f%d", i)))
					if err == nil && e.ID != core.EntityID(100+i) {
						err = fmt.Errorf("call %d answered with entity %d", i, e.ID)
					}
					answers[i] <- err
				}()
			}

			// The leader: alone, its request out, parked in its read.
			resolve(0)
			conn.awaitRequests(t, 1)
			conn.awaitRead(t)
			for i := 1; i < calls; i++ {
				resolve(i)
			}
			reqs := conn.awaitRequests(t, calls)
			conn.chunks <- append(responseFrames(t, reqs), tc.tail...)

			select {
			case err := <-answers[0]:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the leader's call did not return: it read the connection again")
			}
			c.pmu.Lock()
			left := len(c.pending)
			c.pmu.Unlock()
			if left != 0 {
				t.Errorf("leader returned with %d of %d calls still pending, their answers buffered", left, calls-1)
			}
			for i := 1; i < calls; i++ {
				select {
				case err := <-answers[i]:
					if err != nil {
						t.Error(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("call %d was never answered", i)
				}
			}
			if got := conn.reads.Load(); got != 2 {
				t.Errorf("%d reads, want 2: the handshake's and the burst's", got)
			}
		})
	}
}

// TestCallRecordReusedCleanAfterFailure: a call that ends with its client
// — the stream torn under its leader, a malformed answer, Close while it
// waits — hands its record back with no completion signal left in it. A
// leftover signal would complete the record's next call at once, with an
// empty answer; on one P that next call is the healthy client's below.
func TestCallRecordReusedCleanAfterFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := core.ParsePath("usr/bin/ls")

	for _, tc := range []struct {
		name string
		// end plays the server once the request is in and the client is
		// on its way to read the answer.
		end func(r *rawConn, id uint64, bad *Client)
	}{
		{"server-hangs-up", func(r *rawConn, _ uint64, _ *Client) { _ = r.conn.Close() }},
		{"malformed-answer", func(r *rawConn, id uint64, _ *Client) {
			body := append(binary.AppendUvarint(nil, id), 0xFF, 0xFF)
			_, _ = r.conn.Write(append(binary.AppendUvarint(nil, uint64(len(body))), body...))
		}},
		{"closed-while-waiting", func(_ *rawConn, _ uint64, bad *Client) { _ = bad.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, tr, f := exportedTree(t)
			good := pipeClient(t, NewServer(w, tr.RootContext()))
			for i := 0; i < 20; i++ {
				serverEnd, clientEnd := net.Pipe()
				bad := make(chan *Client, 1)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer serverEnd.Close()
					r, ok := fakeServer(serverEnd, binaryMagic)
					if !ok {
						return
					}
					req, ok := r.recvReq()
					if !ok {
						return
					}
					tc.end(r, req.ID, <-bad)
					r.recvReq() // until the client hangs up
				}()
				c := NewClient(clientEnd)
				bad <- c
				if _, err := c.Resolve(p); err == nil {
					t.Fatal("a call on a failing stream succeeded")
				}
				_ = c.Close()
				wg.Wait()
				for j := 0; j < 3; j++ {
					if got, err := good.Resolve(p); err != nil || got != f {
						t.Fatalf("fresh call after a failed one = %v, %v; want %v", got, err, f)
					}
				}
			}
		})
	}
}

// TestBatchResultsNotAliased: a batch's Results belong to its caller. The
// record its call ran in is reused by later calls, and what they parse must
// never land in an array an earlier answer handed out.
func TestBatchResultsNotAliased(t *testing.T) {
	w, tr, _ := exportedTree(t)
	c := pipeClient(t, NewServer(w, tr.RootContext()))
	batch := func(paths ...string) request {
		req := request{}
		for _, p := range paths {
			req.Paths = append(req.Paths, core.ParsePath(p))
		}
		return req
	}

	first, err := c.call(batch("usr/bin/ls", "usr", "usr/bin"))
	if err != nil {
		t.Fatal(err)
	}
	kept := slices.Clone(first.Results)
	second, err := c.call(batch("no/such", "usr/bin", "usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Results, kept) {
		t.Fatalf("a later call rewrote an earlier batch's results:\n now  %+v\n were %+v", first.Results, kept)
	}
	if &first.Results[0] == &second.Results[0] {
		t.Fatal("two calls' batch results share one array")
	}

	// The same from many callers at once: under -race, a shared array is a
	// reported race as well as a changed answer.
	const callers, rounds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev []result
			var want []result
			for r := 0; r < rounds; r++ {
				resp, err := c.call(batch("usr/bin/ls", "usr", "no/such", "usr/bin"))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(prev, want) {
					t.Errorf("an earlier answer changed under its caller: %+v, was %+v", prev, want)
					return
				}
				prev, want = resp.Results, slices.Clone(resp.Results)
			}
		}()
	}
	wg.Wait()
}

// TestOversizedRequestFlushesYieldersFrames: a pipelined caller back from
// its yield that finds the write token busy leaves its frame to the
// token's holder. A holder whose own request is refused as too big must
// still send that frame: its caller waits for an answer to it, and with
// no timeout and no later call nobody else would. Two Ps, so the yielder
// comes back while the holder is still encoding its oversized batch.
func TestOversizedRequestFlushesYieldersFrames(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	conn := newBurstConn()
	conn.chunks <- []byte{binaryMagic}
	c := NewClient(conn)
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	conn.awaitRead(t) // the handshake's
	const calls = 3
	answers := make([]chan error, calls)
	queued := func(n int) { // n calls registered, the last parked on the token
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			c.pmu.Lock()
			got := len(c.pending)
			c.pmu.Unlock()
			if got == n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d calls registered, want %d", got, n)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := range answers {
		answers[i] = make(chan error, 1)
		go func() {
			e, err := c.Resolve(core.ParsePath(fmt.Sprintf("dir/f%d", i)))
			if err == nil && e.ID != core.EntityID(100+i) {
				err = fmt.Errorf("call %d answered with entity %d", i, e.ID)
			}
			answers[i] <- err
		}()
		if i == 0 {
			// The leader: alone, its request out, parked in its read. The
			// test then holds the write token, so the callers after it queue
			// for the token in the order they come.
			conn.awaitRequests(t, 1)
			conn.awaitRead(t)
			c.wtoken <- struct{}{}
		}
		queued(i + 1)
	}
	// Call 1 saw one other call in flight and flushes alone; call 2 saw two,
	// yields, and hands the token to this batch, which spends a while
	// encoding more than maxFrame bytes.
	paths := make([]core.Path, maxFrame/4)
	for i := range paths {
		paths[i] = core.ParsePath("dir/f0")
	}
	big := make(chan error, 1)
	go func() {
		_, err := c.call(request{Paths: paths})
		big <- err
	}()
	queued(calls + 1)
	<-c.wtoken

	select {
	case err := <-big:
		if !errors.Is(err, syscall.EMSGSIZE) {
			t.Fatalf("oversized batch: %v, want EMSGSIZE", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the oversized batch was never refused")
	}
	reqs := conn.awaitRequests(t, calls)
	conn.chunks <- responseFrames(t, reqs)
	for i, answer := range answers {
		select {
		case err := <-answer:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("call %d was never answered", i)
		}
	}
}
