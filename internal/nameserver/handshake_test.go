package nameserver

// The version handshake (codec.go, "Negotiation"): one byte each way, and
// a mismatch in either direction is a refusal, not a fallback.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestServerRefusesUnknownHello: whatever a peer opens with — the previous
// layout's version, the retired fallback byte, any byte a gob stream can
// start with (a small literal count, or a negated byte count from 0xF8
// up) — it reads the one version the server speaks and then EOF, and the
// connection leaves nothing running behind it.
func TestServerRefusesUnknownHello(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	for _, hello := range []byte{0xB1, 0xB0, 0x00, 0x7F, 0xF8, 0xFF} {
		t.Run(fmt.Sprintf("%#02x", hello), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			serverEnd, clientEnd := net.Pipe()
			defer clientEnd.Close()
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.ServeConn(serverEnd)
			}()
			_ = clientEnd.SetDeadline(time.Now().Add(serveWriteTimeout))
			if _, err := clientEnd.Write([]byte{hello}); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(clientEnd)
			if err != nil || len(got) != 1 || got[0] != binaryMagic {
				t.Fatalf("peer read % x, %v; want exactly the version byte %#x, then EOF", got, err, binaryMagic)
			}
			<-served
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("goroutines outlived the refused conn:\n%s", buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}

// TestDialRefusedByOtherVersion: a server that answers with another
// version fails the dial with ErrProtocolVersion, naming both.
func TestDialRefusedByOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if conn, err := ln.Accept(); err == nil {
			fakeServer(conn, 0xB3)
			_ = conn.Close()
		}
	}()
	c, err := Dial("tcp", ln.Addr().String())
	if err == nil {
		_ = c.Close()
		t.Fatal("dial to a server of another version succeeded")
	}
	if !errors.Is(err, ErrProtocolVersion) || !strings.Contains(err.Error(), "0xB2") || !strings.Contains(err.Error(), "0xB3") {
		t.Fatalf("dial error = %v; want ErrProtocolVersion naming 0xB2 and 0xB3", err)
	}
}
