package main

import (
	"bytes"
	"errors"
	"net"
	"regexp"
	"strings"
	"testing"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
)

const testSpec = `
dir /usr/bin
file /usr/bin/ls "#!ls"
file /etc/motd "welcome"
`

// session is the one argv set every shape runs: a resolve with a missing
// name, the same as one batch, a cache that misses once and hits once, a
// push subscription, the failure-model flags, and every write verb.
var session = [][]string{
	{"/usr/bin/ls", "/etc/motd", "/nope"},
	{"-batch", "/usr/bin/ls", "/etc/motd", "/nope"},
	{"-cache", "8", "-n", "2", "/usr/bin/ls"},
	{"-push", "-cache", "8", "/etc/motd"},
	{"-timeout", "0", "-retries", "0", "/etc/motd"},
	{"mkcontext", "/usr/local"},
	{"bind", "/usr/local/tool", "/usr/bin/ls"},
	{"/usr/local/tool"},
	{"unbind", "/usr/local/tool"},
	{"/usr/local/tool"},
}

// entityRE matches a printed entity; its number depends on the shape's
// build order, not on nsq.
var entityRE = regexp.MustCompile(`\bo\d+\b`)

// runSession runs session against a fresh shards×replicas cluster, each
// argv preceded by extra, and returns what nsq printed with the seed
// address replaced by ADDR, and the cluster (still serving).
func runSession(t *testing.T, shards, replicas int, extra ...string) (string, *cluster.Cluster) {
	t.Helper()
	cl, err := cluster.NewReplicated(core.NewWorld(), testSpec, shards, replicas)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	addr := cl.Addrs()[0]
	var out bytes.Buffer
	for _, argv := range session {
		args := append(append([]string{"-addr", addr}, extra...), argv...)
		if err := run(&out, args); err != nil {
			t.Fatalf("nsq %v: %v", args, err)
		}
		cl.DrainReplication()
	}
	return strings.ReplaceAll(out.String(), addr, "ADDR"), cl
}

// checkSession runs session against a shape twice, once with -cluster,
// and holds both transcripts to want (entities as oN): the flag changes
// no output byte, and every flag means the same against every shape.
func checkSession(t *testing.T, shards, replicas int, want string) *cluster.Cluster {
	t.Helper()
	got, cl := runSession(t, shards, replicas)
	again, _ := runSession(t, shards, replicas, "-cluster")
	if again != got {
		t.Errorf("-cluster changed the output:\n%s\nwithout it:\n%s", again, got)
	}
	if norm := entityRE.ReplaceAllString(got, "oN"); norm != want {
		t.Errorf("%d×%d transcript:\n%s\nwant:\n%s", shards, replicas, norm, want)
	}
	return cl
}

// TestVerbsSingleServer runs the one argv set against a lone nsd: one
// shard with one replica, which serves a routing table like any cluster.
func TestVerbsSingleServer(t *testing.T) {
	checkSession(t, 1, 1, `cluster: 1 shards x 1 replicas via ADDR
/usr/bin/ls                    -> oN
/etc/motd                      -> oN
/nope                          -> error: remote: name "nope" not bound (component 0 of "nope")
cluster: 1 shards x 1 replicas via ADDR
/usr/bin/ls                    -> oN
/etc/motd                      -> oN
/nope                          -> error: remote: name "nope" not bound (component 0 of "nope")
cluster: 1 shards x 1 replicas via ADDR
/usr/bin/ls                    -> oN
/usr/bin/ls                    -> oN
cache: 1 hits, 1 misses
cluster: 1 shards x 1 replicas via ADDR
/etc/motd                      -> oN
cache: 0 hits, 1 misses
push: 0 invalidations
cluster: 1 shards x 1 replicas via ADDR
/etc/motd                      -> oN
made context /usr/local -> oN
bound /usr/local/tool -> oN
cluster: 1 shards x 1 replicas via ADDR
/usr/local/tool                -> oN
unbound /usr/local/tool
cluster: 1 shards x 1 replicas via ADDR
/usr/local/tool                -> error: remote: name "tool" not bound (component 2 of "usr/local/tool")
`)
}

// TestVerbsCluster runs the same argv set against two shards of two
// replicas each, and checks that the writes reached every replica.
func TestVerbsCluster(t *testing.T) {
	cl := checkSession(t, 2, 2, `cluster: 2 shards x 2 replicas via ADDR
/usr/bin/ls                    -> oN
/etc/motd                      -> oN
/nope                          -> error: remote: name "nope" not bound (component 0 of "nope")
cluster: 2 shards x 2 replicas via ADDR
/usr/bin/ls                    -> oN
/etc/motd                      -> oN
/nope                          -> error: remote: name "nope" not bound (component 0 of "nope")
cluster: 2 shards x 2 replicas via ADDR
/usr/bin/ls                    -> oN
/usr/bin/ls                    -> oN
cache: 1 hits, 1 misses
cluster: 2 shards x 2 replicas via ADDR
/etc/motd                      -> oN
cache: 0 hits, 1 misses
push: 0 invalidations
cluster: 2 shards x 2 replicas via ADDR
/etc/motd                      -> oN
made context /usr/local -> oN
bound /usr/local/tool -> oN
cluster: 2 shards x 2 replicas via ADDR
/usr/local/tool                -> oN
unbound /usr/local/tool
cluster: 2 shards x 2 replicas via ADDR
/usr/local/tool                -> error: remote: name "tool" not bound (component 2 of "usr/local/tool")
`)
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

// TestFlagsRejected: a count, size or deadline out of range is refused
// by name before anything is dialled, as are a bad verb operand count
// and the flag that used to select a second cache.
func TestFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0", "/usr/bin/ls"}, "-n 0: must be >= 1"},
		{[]string{"-n", "-2", "/usr/bin/ls"}, "-n -2: must be >= 1"},
		{[]string{"-cache", "-1", "/usr/bin/ls"}, "-cache -1: must be >= 0"},
		{[]string{"-timeout", "-1s", "/usr/bin/ls"}, "-timeout -1s: must be >= 0"},
		{[]string{"-retries", "-1", "/usr/bin/ls"}, "-retries -1: must be >= 0"},
		{[]string{"-batch"}, "no paths given"},
		{[]string{"bind", "/usr/local/x"}, "bind: need PATH TARGET"},
		{[]string{"unbind"}, "unbind: need PATH"},
		{[]string{"-coherent", "/usr/bin/ls"}, "flag provided but not defined: -coherent"},
	} {
		var out bytes.Buffer
		err := run(&out, append([]string{"-addr", "127.0.0.1:1"}, tc.args...))
		if err == nil || err.Error() != tc.want {
			t.Errorf("nsq %v: error = %v, want %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("nsq %v printed %q", tc.args, out.String())
		}
	}
}

// TestRefusedByOtherVersion: against a server that answers the handshake
// with another protocol version, run fails (main exits non-zero on any
// error) with a message naming both versions, with or without -cluster.
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
		err := run(&bytes.Buffer{}, args)
		if !errors.Is(err, nameserver.ErrProtocolVersion) ||
			!strings.Contains(err.Error(), "0xB2") || !strings.Contains(err.Error(), "0xB3") {
			t.Errorf("nsq %v: error = %v; want ErrProtocolVersion naming 0xB2 and 0xB3", args, err)
		}
	}
}
