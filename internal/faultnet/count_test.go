package faultnet

import (
	"io"
	"net"
	"testing"
)

func TestCountsBothSides(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var server, client Counts
	ln := CountListener(inner, &server)
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		_, _ = conn.Write(buf[:2])
	}()

	raw, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := CountConn(raw, &client)
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	// The reply proves the server's read and write both returned.
	if w, b := client.Writes.Load(), client.WriteBytes.Load(); w != 1 || b != 5 {
		t.Errorf("client wrote %d times, %d bytes; want 1, 5", w, b)
	}
	if b := client.ReadBytes.Load(); b != 2 {
		t.Errorf("client read %d bytes, want 2", b)
	}
	if b := server.ReadBytes.Load(); b != 5 {
		t.Errorf("server read %d bytes, want 5", b)
	}
	if w, b := server.Writes.Load(), server.WriteBytes.Load(); w != 1 || b != 2 {
		t.Errorf("server wrote %d times, %d bytes; want 1, 2", w, b)
	}
}
