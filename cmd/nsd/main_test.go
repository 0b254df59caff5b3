package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
	"namecoherence/internal/treespec"
)

// startDaemon runs the daemon in the background and returns its primary
// address plus a wait function that delivers run's error after shutdown.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	addr, _, wait := startDaemonBanner(t, args...)
	return addr, wait
}

// startDaemonBanner is startDaemon that also returns the line the daemon
// announced itself on. It reads stdout the way bench/nsload/proc.go does:
// the daemon is serving once it prints "nsd serving on ADDR ..." (a lone
// server) or "bootstrap: nsq -cluster -addr ADDR ..." (every other shape).
func startDaemonBanner(t *testing.T, args ...string) (addr, banner string, wait func() error) {
	t.Helper()
	pr, pw := io.Pipe()
	errCh := make(chan error, 1)
	go func() {
		err := run(args, pw)
		_ = pw.Close()
		errCh <- err
	}()
	bannerCh := make(chan string, 1)
	go func() {
		announced := false
		// Scan to EOF so the daemon never blocks on the pipe.
		for sc := bufio.NewScanner(pr); sc.Scan(); {
			line := sc.Text()
			if !announced && (strings.HasPrefix(line, "nsd serving on ") || strings.HasPrefix(line, "bootstrap: ")) {
				announced = true
				bannerCh <- line
			}
		}
	}()
	select {
	case banner = <-bannerCh:
		fields := strings.Fields(banner)
		addr = fields[3]
		if fields[0] == "bootstrap:" {
			addr = fields[4]
		}
		return addr, banner, func() error {
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
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start serving")
	}
	return "", "", nil
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

// A write the daemon acknowledged after its last periodic snapshot, or with
// none running, is committed by the shutdown SIGTERM starts: the restarted
// daemon resolves it at the write's revision.
func TestShutdownCommitsAcknowledgedWrite(t *testing.T) {
	for _, interval := range []string{"0", "1h"} {
		dir := t.TempDir()
		addr, wait := startDaemon(t, "-addr", "127.0.0.1:0", "-data", dir, "-snap-interval", interval)
		ls := resolveAll(t, addr, []string{"usr/bin/ls"})[0]
		cl, err := nameserver.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := cl.Bind(core.ParsePath("etc"), "acked", ls.ent)
		_ = cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		sigterm(t)
		if err := wait(); err != nil {
			t.Fatal(err)
		}

		addr, wait = startDaemon(t, "-addr", "127.0.0.1:0", "-data", dir, "-snap-interval", interval)
		got := resolveAll(t, addr, []string{"etc/acked"})[0]
		sigterm(t)
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		if got.rev != rev {
			t.Errorf("-snap-interval %s: the restarted daemon serves revision %d; the write was acknowledged at %d", interval, got.rev, rev)
		}
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

// A -data directory written the way the single-server nsd of PR 19 and
// before wrote it — the whole spec built under the label "nsd", committed
// as manifest shard 0 — recovers under the cluster assembly: the daemon
// serves the stored graph, not the spec, at exactly the committed revision,
// with the entity ids a restore into a fresh world yields.
func TestRecoversSingleServerStore(t *testing.T) {
	dir := t.TempDir()
	const rev = 7
	paths := []string{"usr/bin/ls", "mnt/bin/ls", "etc/motd", "etc/issue"}

	st, err := snapstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorld()
	tr, err := treespec.Build(demoSpec, w, "nsd")
	if err != nil {
		t.Fatal(err)
	}
	// Not in the spec: only a daemon serving the store can resolve it.
	if _, err := tr.Create(core.ParsePath("etc/issue"), "written before the restart"); err != nil {
		t.Fatal(err)
	}
	root, err := st.Snapshot(w, tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(0, rev, root); err != nil {
		t.Fatal(err)
	}
	restored, err := st.Restore(root, core.NewWorld(), "nsd")
	if err != nil {
		t.Fatal(err)
	}

	addr, wait := startDaemon(t, "-addr", "127.0.0.1:0", "-data", dir, "-snap-interval", "0")
	got := resolveAll(t, addr, paths)
	sigterm(t)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		want, err := restored.Lookup(core.ParsePath(p))
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != (answer{ent: want, rev: rev}) {
			t.Errorf("%s = %+v, want %v at revision %d", p, got[i], want, rev)
		}
	}
}

// The line bench/nsload/proc.go announces on, per deployment shape, and
// who binds -addr: a lone server does, every other shape leaves the
// address alone (the test holds it open while those daemons run).
func TestBannerAndListenAddrByShape(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		banner string
		lone   bool
	}{
		{"1x1", nil, "nsd serving on %s (interrupt to stop)", true},
		{"2x1", []string{"-shard", "2"}, "bootstrap: nsq -cluster -addr %s <path>...", false},
		{"1x2", []string{"-replicas", "2"}, "bootstrap: nsq -cluster -addr %s <path>...", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			held, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fixed := held.Addr().String()
			if tc.lone {
				_ = held.Close()
			} else {
				defer func() { _ = held.Close() }()
			}
			addr, banner, wait := startDaemonBanner(t, append(tc.args, "-addr", fixed)...)
			resolveAll(t, addr, []string{"usr/bin/ls"})
			sigterm(t)
			if err := wait(); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf(tc.banner, addr); banner != want {
				t.Errorf("announced on %q, want %q", banner, want)
			}
			if (addr == fixed) != tc.lone {
				t.Errorf("serving on %s with -addr %s, lone = %v", addr, fixed, tc.lone)
			}
		})
	}
}

// Out-of-range flags are refused by name before anything is built. Every
// row also passes -dump, so a flag that slipped through would make run
// print the demo tree and return nil instead of serving forever.
func TestFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shard", "0"}, "-shard 0: need at least 1"},
		{[]string{"-replicas", "0"}, "-replicas 0: need at least 1"},
		{[]string{"-snap-interval", "-1s"}, "-snap-interval -1s: must be >= 0"},
	} {
		var out strings.Builder
		err := run(append([]string{"-dump"}, tc.args...), &out)
		if err == nil || err.Error() != tc.want {
			t.Errorf("nsd %v: error = %v, want %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("nsd %v printed %q", tc.args, out.String())
		}
	}
}

// A -readonly daemon resolves, refuses every write verb with "server is
// read-only", and its revision does not move.
func TestReadOnlyRefusesWrites(t *testing.T) {
	addr, wait := startDaemon(t, "-readonly", "-addr", "127.0.0.1:0")
	before := resolveAll(t, addr, []string{"usr/bin/ls"})[0]

	cl, err := nameserver.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	usrBin := core.ParsePath("usr/bin")
	_, bindErr := cl.Bind(usrBin, "ls2", before.ent)
	_, unbindErr := cl.Unbind(usrBin, "ls")
	_, _, mkErr := cl.Mkcontext(core.ParsePath("usr"), "local")
	_ = cl.Close()
	for verb, err := range map[string]error{"bind": bindErr, "unbind": unbindErr, "mkcontext": mkErr} {
		if err == nil || !strings.Contains(err.Error(), "server is read-only") {
			t.Errorf("%s on a -readonly daemon: %v, want \"server is read-only\"", verb, err)
		}
	}

	if after := resolveAll(t, addr, []string{"usr/bin/ls"})[0]; after != before {
		t.Errorf("after the refused writes /usr/bin/ls = %+v, was %+v", after, before)
	}
	sigterm(t)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}
