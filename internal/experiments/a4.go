package experiments

import (
	"fmt"
	"net"
	"sync"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/workload"
)

// A4Config parameterizes ablation A4: stale reads under binding churn for
// each cache discipline.
type A4Config struct {
	// Names is the number of distinct remote names.
	Names int
	// Lookups is the number of lookups issued.
	Lookups int
	// ChurnEvery rebinds one random name every this many lookups.
	ChurnEvery int
	// CacheSize sizes the caches under test.
	CacheSize int
	// Seed drives lookup and churn choices.
	Seed int64
}

// DefaultA4 returns the standard configuration.
func DefaultA4() A4Config {
	return A4Config{Names: 50, Lookups: 1000, ChurnEvery: 25, CacheSize: 64, Seed: 17}
}

// a4Scheme describes one cache discipline under test.
type a4Scheme struct {
	name string
	opts []nameserver.ClientOption
}

// A4 interleaves lookups with server-side rebinding and counts stale reads
// (lookups that returned an entity other than the current binding) for the
// no-cache, plain-cache and coherent-cache disciplines.
func A4(cfg A4Config) (*Table, error) {
	t := &Table{
		ID:     "A4",
		Title:  title("A4"),
		Header: []string{"cache", "lookups", "stale-reads", "server-requests", "hit-rate"},
		Notes: []string{
			"extension of the paper's coherence concern to name caches: an",
			"uninvalidated cache serves stale meanings indefinitely; the",
			"revision-tracked cache bounds staleness to one round-trip.",
		},
	}
	schemes := []a4Scheme{
		{name: "none"},
		{name: "plain", opts: []nameserver.ClientOption{nameserver.WithCache(cfg.CacheSize)}},
		{name: "coherent", opts: []nameserver.ClientOption{nameserver.WithCoherentCache(cfg.CacheSize)}},
	}
	for _, scheme := range schemes {
		stale, served, hitRate, err := a4Run(cfg, scheme)
		if err != nil {
			return nil, err
		}
		t.AddRow(scheme.name, itoa(cfg.Lookups), itoa(stale), itoa(served), f2(hitRate))
	}
	return t, nil
}

func a4Run(cfg A4Config, scheme a4Scheme) (stale, served int, hitRate float64, err error) {
	w := core.NewWorld()
	tr := dirtree.New(w, "export")
	paths := make([]core.Path, cfg.Names)
	truth := make([]core.Entity, cfg.Names)
	for i := range paths {
		p := core.ParsePath(fmt.Sprintf("dir/f%04d", i))
		e, err := tr.Create(p, "x")
		if err != nil {
			return 0, 0, 0, err
		}
		paths[i] = p
		truth[i] = e
	}
	dirEnt, err := tr.Lookup(core.PathOf("dir"))
	if err != nil {
		return 0, 0, 0, err
	}

	server := nameserver.NewServer(w, tr.RootContext())
	server.WatchExport(tr.Root)
	serverEnd, clientEnd := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server.ServeConn(serverEnd)
	}()
	client := nameserver.NewClient(clientEnd, scheme.opts...)
	defer func() {
		_ = client.Close()
		wg.Wait()
	}()

	gen := workload.New(cfg.Seed)
	lookupSeq := gen.Zipf(cfg.Lookups, cfg.Names)
	dirCtx, _ := w.ContextOf(dirEnt)
	for i, idx := range lookupSeq {
		if cfg.ChurnEvery > 0 && i > 0 && i%cfg.ChurnEvery == 0 {
			victim := gen.Intn(cfg.Names)
			fresh := w.NewObject("fresh")
			dirCtx.Bind(paths[victim][len(paths[victim])-1], fresh)
			truth[victim] = fresh
		}
		got, err := client.Resolve(paths[idx])
		if err != nil {
			return 0, 0, 0, err
		}
		if got != truth[idx] {
			stale++
		}
	}
	hits, misses := client.Stats()
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return stale, server.Served(), hitRate, nil
}
