package main

import (
	"errors"
	"net"
	"strings"
	"testing"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/treespec"
)

const testSpec = `
dir /usr/bin
file /usr/bin/ls "#!ls"
file /etc/motd "welcome"
`

// startServer serves the test spec on a loopback listener.
func startServer(t *testing.T) string {
	t.Helper()
	w := core.NewWorld()
	tr, err := treespec.Build(testSpec, w, "nsq-test")
	if err != nil {
		t.Fatal(err)
	}
	s := nameserver.NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ln)
	}()
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return ln.Addr().String()
}

// TestVerbsSingleServer walks the documented mutation flow against one
// server: mkcontext, bind into it, resolve, unbind, resolve again.
func TestVerbsSingleServer(t *testing.T) {
	addr := startServer(t)
	steps := [][]string{
		{"-addr", addr, "mkcontext", "/usr/local"},
		{"-addr", addr, "bind", "/usr/local/tool", "/usr/bin/ls"},
		{"-addr", addr, "/usr/local/tool"},
		{"-addr", addr, "unbind", "/usr/local/tool"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("nsq %v: %v", args, err)
		}
	}

	// The unbound name is gone; run still succeeds (per-path errors print).
	cl, err := nameserver.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	if _, err := cl.Resolve(core.ParsePath("usr/local/tool")); err == nil {
		t.Fatal("unbound name still resolves")
	}

	// Verb operand validation.
	if err := run([]string{"-addr", addr, "bind", "/usr/local/x"}); err == nil {
		t.Fatal("bind with one operand did not error")
	}
	if err := run([]string{"-addr", addr, "unbind"}); err == nil {
		t.Fatal("unbind with no operand did not error")
	}
	// The revision-tracked cache is -cluster -cache; the flag that used to
	// select a second one is gone.
	if err := run([]string{"-addr", addr, "-cache", "8", "-coherent", "/usr/bin/ls"}); err == nil {
		t.Fatal("-coherent was accepted")
	}
}

// TestVerbsCluster routes the same flow through a sharded cluster, with
// push invalidation on for the final read.
func TestVerbsCluster(t *testing.T) {
	w := core.NewWorld()
	cl, err := cluster.NewReplicated(w, testSpec, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	addr := cl.Addrs()[0]
	steps := [][]string{
		{"-cluster", "-addr", addr, "mkcontext", "/usr/local"},
		{"-cluster", "-addr", addr, "bind", "/usr/local/tool", "/usr/bin/ls"},
		{"-cluster", "-addr", addr, "-push", "-cache", "8", "/usr/local/tool"},
		{"-cluster", "-addr", addr, "unbind", "/usr/local/tool"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("nsq %v: %v", args, err)
		}
	}
	cl.DrainReplication()
	shard := cl.Routes().ShardFor(core.ParsePath("usr/local/tool"))
	for r := 0; r < cl.ReplicasPerShard(); r++ {
		if _, err := cl.ReplicaTrees[shard][r].Lookup(core.ParsePath("usr/local")); err != nil {
			t.Fatalf("replica %d: created context missing: %v", r, err)
		}
		if _, err := cl.ReplicaTrees[shard][r].Lookup(core.ParsePath("usr/local/tool")); err == nil {
			t.Fatalf("replica %d: unbound name still present", r)
		}
	}
}

// TestDescribeFrame pins the two lines -push prints: a frame that names
// the binding it changed, and one that can only say the revision moved.
func TestDescribeFrame(t *testing.T) {
	for _, tc := range []struct {
		give nameserver.Invalidation
		want string
	}{
		{nameserver.Invalidation{Rev: 12, Dir: 7, Name: "ls"}, "rev 12: dir #7 ls"},
		{nameserver.Invalidation{Rev: 13}, "rev 13: everything"},
	} {
		if got := describeFrame(tc.give); got != tc.want {
			t.Errorf("describeFrame(%+v) = %q, want %q", tc.give, got, tc.want)
		}
	}
}

// TestRefusedByOtherVersion: against a server that answers the handshake
// with another protocol version, run fails (main exits non-zero on any
// error) with a message naming both versions, plain or -cluster.
func TestRefusedByOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var hello [1]byte
			if _, err := conn.Read(hello[:]); err == nil {
				_, _ = conn.Write([]byte{0xB3})
			}
			_ = conn.Close()
		}
	}()
	for _, args := range [][]string{
		{"-addr", ln.Addr().String(), "/usr/bin/ls"},
		{"-cluster", "-addr", ln.Addr().String(), "/usr/bin/ls"},
	} {
		err := run(args)
		if !errors.Is(err, nameserver.ErrProtocolVersion) ||
			!strings.Contains(err.Error(), "0xB2") || !strings.Contains(err.Error(), "0xB3") {
			t.Errorf("nsq %v: error = %v; want ErrProtocolVersion naming 0xB2 and 0xB3", args, err)
		}
	}
}
