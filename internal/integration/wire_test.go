package integration

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/sharedns"
)

// An Andrew-style shared tree exported over TCP: a remote client resolving
// /usr/paper through the name server gets exactly the entity local client
// processes see at /vice/usr/paper.
func TestSharedTreeExportedOverTCP(t *testing.T) {
	w := core.NewWorld()
	s, err := sharedns.NewSystem(w, "ws1", "ws2")
	if err != nil {
		t.Fatal(err)
	}
	vice, err := s.AttachSpace(sharedns.ViceName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vice.Tree.Create(core.ParsePath("usr/paper"), "text"); err != nil {
		t.Fatal(err)
	}

	server := nameserver.NewServer(w, vice.Tree.RootContext())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		server.Serve(ln)
	}()
	defer func() {
		server.Close()
		<-done
	}()

	client, err := nameserver.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	remote, err := client.Resolve(core.ParsePath("usr/paper"))
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := s.Spawn("ws1", "local")
	local, err := p1.Resolve("/vice/usr/paper")
	if err != nil {
		t.Fatal(err)
	}
	if remote != local {
		t.Fatalf("wire resolution %v != local %v", remote, local)
	}
}

// Concurrent resolution through the whole stack while the exported tree
// churns: four cluster clients with revision-tracked caches resolve over
// TCP against a one-shard cluster while the server side rebinds the name.
// The test asserts liveness and that every result is either the old or the
// new binding (no torn values).
func TestConcurrentChurnOverTCP(t *testing.T) {
	w := core.NewWorld()
	cl, err := cluster.New(w, "file dir/hot \"v1\"\n", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := cl.Trees[0]

	p := core.ParsePath("dir/hot")
	old, err := tr.Lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	fresh := w.NewObject("fresh")

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := cluster.NewClient("tcp", cl.Routes(), cluster.WithLRU(8))
			defer client.Close()
			for j := 0; j < 50; j++ {
				got, err := client.Resolve(p)
				if err != nil {
					errs <- err
					return
				}
				if got != old && got != fresh {
					errs <- fmt.Errorf("resolved %v, want %v or %v", got, old, fresh)
					return
				}
			}
		}()
	}
	// Churn while the clients hammer.
	dirEnt, _ := tr.Lookup(core.PathOf("dir"))
	dirCtx, _ := w.ContextOf(dirEnt)
	dirCtx.Bind("hot", fresh)

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After churn, a fresh client must see the new binding.
	client, err := nameserver.Dial("tcp", cl.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	got, err := client.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Fatalf("post-churn resolve = %v, want %v", got, fresh)
	}
}
