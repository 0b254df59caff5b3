package experiments

import (
	"fmt"
	"strings"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
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

// a4Client is what A4 needs of a client under test; the wire client and the
// cluster client both provide it.
type a4Client interface {
	Resolve(core.Path) (core.Entity, error)
	Stats() (hits, misses int)
}

// a4Dial connects one cache discipline's client to the one-shard cluster
// and returns it with its close function.
func a4Dial(scheme string, cl *cluster.Cluster, cacheSize int) (a4Client, func(), error) {
	if scheme == "coherent" {
		// The cluster's own routing table: no bootstrap request is counted.
		c := cluster.NewClient("tcp", cl.Routes(), cluster.WithLRU(cacheSize))
		return c, c.Close, nil
	}
	var opts []nameserver.ClientOption
	if scheme == "plain" {
		opts = append(opts, nameserver.WithCache(cacheSize))
	}
	c, err := nameserver.Dial("tcp", cl.Addrs()[0], opts...)
	if err != nil {
		return nil, nil, err
	}
	return c, func() { _ = c.Close() }, nil
}

// A4 interleaves lookups with server-side rebinding and counts stale reads
// (lookups that returned an entity other than the current binding) for the
// no-cache, plain-cache (nameserver.WithCache) and coherent-cache
// (cluster.Client's revision-tracked LRU, polling) disciplines, each against
// a fresh one-shard cluster.
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
	for _, scheme := range []string{"none", "plain", "coherent"} {
		stale, served, hitRate, err := a4Run(cfg, scheme)
		if err != nil {
			return nil, err
		}
		t.AddRow(scheme, itoa(cfg.Lookups), itoa(stale), itoa(served), f2(hitRate))
	}
	return t, nil
}

func a4Run(cfg A4Config, scheme string) (stale, served int, hitRate float64, err error) {
	w := core.NewWorld()
	var spec strings.Builder
	paths := make([]core.Path, cfg.Names)
	for i := range paths {
		paths[i] = core.ParsePath(fmt.Sprintf("dir/f%04d", i))
		fmt.Fprintf(&spec, "file %s \"x\"\n", paths[i])
	}
	cl, err := cluster.New(w, spec.String(), 1)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cl.Close()
	tr := cl.Trees[0]
	truth := make([]core.Entity, cfg.Names)
	for i, p := range paths {
		if truth[i], err = tr.Lookup(p); err != nil {
			return 0, 0, 0, err
		}
	}
	dirEnt, err := tr.Lookup(core.PathOf("dir"))
	if err != nil {
		return 0, 0, 0, err
	}
	client, closeClient, err := a4Dial(scheme, cl, cfg.CacheSize)
	if err != nil {
		return 0, 0, 0, err
	}
	defer closeClient()

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
	return stale, cl.Served(), hitRate, nil
}
