package main

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
)

// startDaemon runs the daemon in the background and returns its primary
// address plus a wait function that delivers run's error after shutdown.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	addrCh := make(chan string, 1)
	testHookServing = func(addr string) { addrCh <- addr }
	errCh := make(chan error, 1)
	go func() { errCh <- run(args) }()
	select {
	case addr := <-addrCh:
		return addr, func() error {
			select {
			case err := <-errCh:
				return err
			case <-time.After(10 * time.Second):
				t.Fatal("daemon did not shut down")
				return nil
			}
		}
	case err := <-errCh:
		t.Fatalf("daemon exited during startup: %v", err)
		return "", nil
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start serving")
		return "", nil
	}
}

// sigterm delivers SIGTERM to this process — the real graceful-shutdown
// path, caught by the handler run registers at startup.
func sigterm(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}

type answer struct {
	ent core.Entity
	rev uint64
}

func resolveAll(t *testing.T, addr string, paths []string) []answer {
	t.Helper()
	cl, err := nameserver.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	out := make([]answer, 0, len(paths))
	for _, p := range paths {
		e, _, rev, err := cl.ResolveRev(core.ParsePath(p))
		if err != nil {
			t.Fatalf("resolve %q: %v", p, err)
		}
		out = append(out, answer{ent: e, rev: rev})
	}
	return out
}

// A daemon killed with SIGTERM flushes a final snapshot, and a restarted
// daemon recovers the graph from -data and serves identical canonical
// answers at the same revision — across as many restarts as you like.
func TestGracefulShutdownAndRecovery(t *testing.T) {
	dir := t.TempDir()
	paths := []string{"usr/bin/ls", "etc/motd", "mnt/bin/cat", "home/alice/notes"}

	// First life: builds from the demo spec and commits the initial root.
	addr, wait := startDaemon(t, "-addr", "127.0.0.1:0", "-data", dir, "-snap-interval", "0")
	resolveAll(t, addr, paths)
	sigterm(t)
	if err := wait(); err != nil {
		t.Fatalf("first life: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatalf("no manifest after graceful shutdown: %v", err)
	}

	// Second life: recovered from the store.
	addr, wait = startDaemon(t, "-addr", "127.0.0.1:0", "-data", dir, "-snap-interval", "0")
	second := resolveAll(t, addr, paths)
	sigterm(t)
	if err := wait(); err != nil {
		t.Fatalf("second life: %v", err)
	}

	// Third life: same store again. Answers are identical — same entity
	// IDs, same kinds, same revision — because the graph is rebuilt from
	// the same canonical blobs in the same deterministic order.
	addr, wait = startDaemon(t, "-addr", "127.0.0.1:0", "-data", dir, "-snap-interval", "0")
	third := resolveAll(t, addr, paths)
	sigterm(t)
	if err := wait(); err != nil {
		t.Fatalf("third life: %v", err)
	}
	for i := range second {
		if second[i] != third[i] {
			t.Fatalf("answer for %q changed across restart: %+v vs %+v",
				paths[i], second[i], third[i])
		}
	}

	// Sharing survives recovery: the link and its target resolve to the
	// same entity.
	if second[0].ent == (core.Entity{}) {
		t.Fatal("zero entity answer")
	}
}

// Links (shared subtrees) restore as shared entities, not copies.
func TestRecoveryPreservesSharing(t *testing.T) {
	dir := t.TempDir()
	addr, wait := startDaemon(t, "-addr", "127.0.0.1:0", "-data", dir, "-snap-interval", "0")
	sigterm(t)
	if err := wait(); err != nil {
		t.Fatal(err)
	}

	addr, wait = startDaemon(t, "-addr", "127.0.0.1:0", "-data", dir, "-snap-interval", "0")
	a := resolveAll(t, addr, []string{"usr/bin/ls", "mnt/bin/ls"})
	sigterm(t)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if a[0].ent != a[1].ent {
		t.Fatalf("link aliasing lost in recovery: %v != %v", a[0].ent, a[1].ent)
	}
	_ = addr
}

// Sharded mode recovers every shard from the store and still serves the
// routing table.
func TestShardedRecovery(t *testing.T) {
	dir := t.TempDir()
	addr, wait := startDaemon(t, "-shard", "2", "-data", dir, "-snap-interval", "0")
	if addr == "" {
		t.Fatal("no bootstrap address")
	}
	sigterm(t)
	if err := wait(); err != nil {
		t.Fatalf("first life: %v", err)
	}

	addr, wait = startDaemon(t, "-shard", "2", "-data", dir, "-snap-interval", "0")
	cl, err := cluster.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Resolve(core.ParsePath("usr/bin/ls")); err != nil {
		t.Fatalf("resolve through recovered cluster: %v", err)
	}
	if _, err := cl.Resolve(core.ParsePath("etc/motd")); err != nil {
		t.Fatalf("resolve through recovered cluster: %v", err)
	}
	cl.Close()
	sigterm(t)
	if err := wait(); err != nil {
		t.Fatalf("second life: %v", err)
	}
}
