package nameserver

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"namecoherence/internal/core"
)

// A peer that sends garbage must not take the server down; other clients
// keep working.
func TestServerSurvivesGarbage(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ln)
	}()
	defer func() {
		s.Close()
		<-done
	}()

	// Garbage connection.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("\xff\x00garbage not gob\x01\x02\x03")); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()

	// A real client still gets answers.
	c, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	got, err := c.Resolve(core.ParsePath("usr/bin/ls"))
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatalf("got %v", got)
	}
}

// A peer that connects and immediately hangs up must not leak handlers.
func TestServerSurvivesImmediateHangup(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ln)
	}()

	for i := 0; i < 10; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	}
	// Close must return promptly (handlers all exited on EOF).
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung — leaked connection handlers")
	}
	<-done
}

// Client behaviour when the server closes mid-session: a clear error, not
// a hang.
func TestClientErrorAfterServerGone(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ln)
	}()
	c, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.Resolve(core.ParsePath("usr")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	<-done
	if _, err := c.Resolve(core.ParsePath("usr")); err == nil {
		t.Fatal("resolve after server close succeeded")
	}
}

// prefixConn is a server's side of a peer that sends a fixed number of
// bytes and then nothing: it reports, once, the first read the server
// issues after every one of those bytes is in — by then the server has
// decoded whatever the bytes announce and is waiting for the rest.
type prefixConn struct {
	net.Conn
	want, got int
	waiting   chan<- struct{}
	reported  bool
}

func (p *prefixConn) Read(b []byte) (int, error) {
	if p.got >= p.want && !p.reported {
		p.reported = true
		p.waiting <- struct{}{}
	}
	n, err := p.Conn.Read(b)
	p.got += n
	return n, err
}

type prefixListener struct {
	net.Listener
	want    int
	waiting chan<- struct{}
}

func (l prefixListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &prefixConn{Conn: conn, want: l.want, waiting: l.waiting}, nil
}

// TestPrefixOnlyPeersPinLittleHeap: a peer that announces the largest frame
// there is and sends nothing after the length prefix pins what it sent,
// give or take a frame chunk — not the announced megabyte. 64 such peers
// used to pin 64 MiB of server heap for as long as they stayed connected.
func TestPrefixOnlyPeersPinLittleHeap(t *testing.T) {
	const (
		peers = 64
		// perPeer bounds the server heap one idle connection may hold: its
		// reader and writer buffers, its state and its workers' scratch,
		// and one frame chunk. A sixteenth of the megabyte announced.
		perPeer = 64 << 10
	)
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hello := append([]byte{binaryMagic}, binary.AppendUvarint(nil, maxFrame)...)
	waiting := make(chan struct{}, peers)
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Serve(prefixListener{Listener: ln, want: len(hello), waiting: waiting})
	}()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	before := heap()
	conns := make([]net.Conn, 0, peers)
	defer func() {
		for _, conn := range conns {
			_ = conn.Close()
		}
		s.Close()
		<-served
	}()
	for i := 0; i < peers; i++ {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < peers; i++ {
		select {
		case <-waiting:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d servers are waiting for a frame body", i, peers)
		}
	}
	after := heap()
	if got := int64(after-before) / peers; got > perPeer {
		t.Errorf("server heap grew %d bytes per prefix-only peer, want <= %d", got, perPeer)
	} else {
		t.Logf("server heap grew %d bytes per prefix-only peer (%d received each)", got, len(hello))
	}
}

// TestIdleConnectionsCost documents what a connection that finished the
// hello and then went quiet holds on the server: its ServeConn goroutine
// plus one worker per GOMAXPROCS, all started up front (3 goroutines at
// GOMAXPROCS 2), and about 9 KiB of heap (amd64; goroutine stacks are not
// heap). Starting workers on demand (ROADMAP item 12) flips the goroutine
// count to at most one per idle connection.
func TestIdleConnectionsCost(t *testing.T) {
	const (
		peers = 32
		// perPeer bounds the server heap one idle connection may hold: its
		// reader and writer buffers and its state.
		perPeer = 32 << 10
	)
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Serve(ln)
	}()
	conns := make([]net.Conn, 0, peers)
	defer func() {
		for _, conn := range conns {
			_ = conn.Close()
		}
		s.Close()
		<-served
	}()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	wantEach := 1 + runtime.GOMAXPROCS(0)
	goBefore, heapBefore := runtime.NumGoroutine(), heap()
	for i := 0; i < peers; i++ {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		var reply [1]byte
		if _, err := conn.Write([]byte{binaryMagic}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply[:]); err != nil || reply[0] != binaryMagic {
			t.Fatalf("hello %d: reply %#x, %v", i, reply[0], err)
		}
	}
	// The workers start just after the reply is written.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine()-goBefore < peers*wantEach && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	goEach := (runtime.NumGoroutine() - goBefore) / peers
	heapEach := int64(heap()-heapBefore) / peers
	t.Logf("an idle connection costs %d goroutines and %d bytes of server heap (GOMAXPROCS %d)",
		goEach, heapEach, runtime.GOMAXPROCS(0))
	if goEach != wantEach {
		t.Errorf("an idle connection costs %d goroutines, documented %d (1 + GOMAXPROCS)", goEach, wantEach)
	}
	if heapEach > perPeer {
		t.Errorf("an idle connection holds %d bytes of server heap, want <= %d", heapEach, perPeer)
	}
}
