package nameserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"namecoherence/internal/core"
)

func TestResolveBatch(t *testing.T) {
	w, tr, f := exportedTree(t)
	if _, err := tr.Create(core.ParsePath("etc/motd"), "hi"); err != nil {
		t.Fatal(err)
	}
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	paths := []core.Path{
		core.ParsePath("usr/bin/ls"),
		core.ParsePath("no/such/name"),
		core.ParsePath("etc/motd"),
	}
	results, err := c.ResolveBatch(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("len(results) = %d", len(results))
	}
	if results[0].Err != nil || results[0].Entity != f {
		t.Fatalf("results[0] = %+v, want %v", results[0], f)
	}
	var re *RemoteError
	if !errors.As(results[1].Err, &re) {
		t.Fatalf("results[1].Err = %v, want RemoteError", results[1].Err)
	}
	if results[2].Err != nil || results[2].Entity.IsUndefined() {
		t.Fatalf("results[2] = %+v", results[2])
	}
	if s.Metrics().Served != 1 {
		t.Fatalf("Served = %d, want 1 (one wire request for the whole batch)", s.Metrics().Served)
	}
	if s.Metrics().Resolved != 3 {
		t.Fatalf("Resolved = %d, want 3", s.Metrics().Resolved)
	}
}

func TestResolveBatchCacheAndDuplicates(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s, WithCache(16))

	p := core.ParsePath("usr/bin/ls")
	// Duplicates within one batch cross the wire once.
	results, err := c.ResolveBatch([]core.Path{p, p, p})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Entity != f {
			t.Fatalf("results[%d] = %+v", i, r)
		}
	}
	if s.Metrics().Resolved != 1 {
		t.Fatalf("Resolved = %d, want 1 (batch deduplicates)", s.Metrics().Resolved)
	}
	// A second batch is answered from the cache entirely.
	if _, err := c.ResolveBatch([]core.Path{p, p}); err != nil {
		t.Fatal(err)
	}
	if s.Metrics().Served != 1 {
		t.Fatalf("Served = %d, want 1 (cache absorbs the second batch)", s.Metrics().Served)
	}
	if m := c.Metrics(); m.Hits != 2 || m.Misses != 3 {
		t.Fatalf("hits, misses = (%d, %d), want (2, 3)", m.Hits, m.Misses)
	}
}

func TestResolveBatchEmpty(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)
	results, err := c.ResolveBatch(nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("ResolveBatch(nil) = %v, %v", results, err)
	}
	if s.Metrics().Served != 0 {
		t.Fatalf("Served = %d, want 0", s.Metrics().Served)
	}
}

func TestRoutesFetch(t *testing.T) {
	w, tr, _ := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	// A server outside any cluster has no routing table.
	if _, err := c.Routes(); err == nil {
		t.Fatal("Routes on a plain server should fail")
	}

	want := &RouteInfo{
		Prefixes: map[string]int{"usr": 0, "etc": 1},
		Default:  0,
		Addrs:    []string{"127.0.0.1:1", "127.0.0.1:2"},
	}
	s.SetRoutes(want)
	got, err := c.Routes()
	if err != nil {
		t.Fatal(err)
	}
	if got.Default != want.Default || len(got.Addrs) != 2 || got.Prefixes["etc"] != 1 {
		t.Fatalf("Routes = %+v", got)
	}
	if s.Metrics().Served != 2 {
		t.Fatalf("Served = %d, want 2", s.Metrics().Served)
	}
	if s.Metrics().Resolved != 0 {
		t.Fatalf("Resolved = %d, want 0 (routing fetches resolve nothing)", s.Metrics().Resolved)
	}
}

func TestRouteInfoShardFor(t *testing.T) {
	r := &RouteInfo{Prefixes: map[string]int{"usr": 2}, Default: 1}
	if got := r.ShardFor(core.ParsePath("usr/bin/ls")); got != 2 {
		t.Fatalf("ShardFor(usr/...) = %d, want 2", got)
	}
	if got := r.ShardFor(core.ParsePath("etc/passwd")); got != 1 {
		t.Fatalf("ShardFor(etc/...) = %d, want 1 (default)", got)
	}
	if got := r.ShardFor(nil); got != 1 {
		t.Fatalf("ShardFor(root) = %d, want 1 (default)", got)
	}
}

// bumpingContext wraps the export context so that the first lookup of a
// chosen component runs a mutation before returning — a deterministic stand-in
// for a binding change racing an in-flight resolution.
type bumpingContext struct {
	core.Context
	trigger core.Name
	once    sync.Once
	mutate  func()
}

func (c *bumpingContext) Lookup(n core.Name) core.Entity {
	e := c.Context.Lookup(n)
	if n == c.trigger {
		c.once.Do(c.mutate)
	}
	return e
}

// TestRevisionSampledAfterResolution is the regression test for the
// revision race: the revision used to be sampled before resolution, so a
// Bump during resolution paired the post-change binding with the stale
// revision and deferred the coherent-cache purge by a full round-trip.
func TestRevisionSampledAfterResolution(t *testing.T) {
	w, tr, _ := exportedTree(t)

	// While the server resolves usr/bin/ls (at the lookup of "usr"), rebind
	// ls and bump — exactly what WatchExport does on a racing write.
	binDir, err := tr.Lookup(core.ParsePath("usr/bin"))
	if err != nil {
		t.Fatal(err)
	}
	binCtx, _ := w.ContextOf(binDir)
	newLs := w.NewObject("new-ls")

	var s *Server
	wrapped := &bumpingContext{
		Context: tr.RootContext(),
		trigger: "usr",
		mutate: func() {
			binCtx.Bind("ls", newLs)
			s.Bump()
		},
	}
	s = NewServer(w, wrapped)

	resp := s.handle(&workerScratch{req: request{Path: core.Path{"usr", "bin", "ls"}}})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if got := core.EntityID(resp.Ent); got != newLs.ID {
		t.Fatalf("resolved ID = %d, want the rebound entity %d", got, newLs.ID)
	}
	if resp.Rev != s.Revision() {
		t.Fatalf("Rev = %d, want the post-change revision %d (stale revision defeats the one-round-trip staleness bound)",
			resp.Rev, s.Revision())
	}
}

// TestClientConcurrentUse exercises one Client over one connection from
// many goroutines under the race detector: requests must pair with their
// responses and the hit/miss counters must stay consistent.
func TestClientConcurrentUse(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent wire stress test")
	}
	w, tr, _ := exportedTree(t)
	const names = 8
	paths := make([]core.Path, names)
	entities := make([]core.Entity, names)
	for i := range paths {
		p := core.ParsePath(fmt.Sprintf("dir/f%02d", i))
		e, err := tr.Create(p, "x")
		if err != nil {
			t.Fatal(err)
		}
		paths[i], entities[i] = p, e
	}
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s, WithCache(names))

	const goroutines, rounds = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % names
				if r%5 == 4 {
					// Mix batches in: same connection, same pairing rules.
					res, err := c.ResolveBatch([]core.Path{paths[i], paths[(i+1)%names]})
					if err != nil {
						errs <- err
						return
					}
					if res[0].Entity != entities[i] || res[1].Entity != entities[(i+1)%names] {
						errs <- fmt.Errorf("goroutine %d: batch mismatch", g)
						return
					}
					continue
				}
				got, err := c.Resolve(paths[i])
				if err != nil {
					errs <- err
					return
				}
				if got != entities[i] {
					errs <- fmt.Errorf("goroutine %d: Resolve(%v) = %v, want %v (response pairing broken)",
						g, paths[i], got, entities[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := c.Metrics()
	// Every lookup is either a hit or a miss; batches count per name.
	want := 0
	for g := 0; g < goroutines; g++ {
		for r := 0; r < rounds; r++ {
			if r%5 == 4 {
				want += 2
			} else {
				want++
			}
		}
	}
	if m.Hits+m.Misses != want {
		t.Fatalf("hits+misses = %d, want %d", m.Hits+m.Misses, want)
	}
	if resolved := s.Metrics().Resolved; resolved != m.Misses {
		t.Fatalf("server resolved %d names, client missed %d — they must match", resolved, m.Misses)
	}
}
