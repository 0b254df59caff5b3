package experiments

import (
	"fmt"
	"strings"

	"namecoherence/internal/cluster"
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/lru"
	"namecoherence/internal/workload"
)

const (
	// a4Lookups is the number of lookups A4 issues per cache discipline.
	a4Lookups = 1000
	// a4CacheSize sizes the caches under test.
	a4CacheSize = 64
)

// plainCacheResolver is the name cache the paper warns about: it keeps
// every answer until eviction and is never invalidated, by revisions or by
// frames. It fronts an uncached cluster client, so every miss is one
// round-trip and a hit is whatever it kept.
type plainCacheResolver struct {
	c     *cluster.Client
	cache *lru.Cache[string, core.Entity]
	m     cluster.ClientMetrics // Hits and Misses only
}

func (r *plainCacheResolver) Resolve(p core.Path) (core.Entity, error) {
	key := p.String()
	if e, ok := r.cache.Get(key); ok {
		r.m.Hits++
		return e, nil
	}
	e, err := r.c.Resolve(p)
	if err != nil {
		return core.Undefined, err
	}
	r.m.Misses++
	r.cache.Put(key, e)
	return e, nil
}

func (r *plainCacheResolver) Metrics() cluster.ClientMetrics { return r.m }

// a4 measures stale reads under binding churn for each cache discipline.
// It interleaves lookups with server-side rebinding and counts stale reads
// (lookups that returned an entity other than the current binding) for the
// no-cache, plain-cache (plainCacheResolver) and coherent-cache
// (cluster.Client's revision-tracked cache, polling) disciplines, each against
// a fresh one-shard cluster.
func a4() (*Table, error) {
	t := &Table{
		Header: []string{"cache", "lookups", "stale-reads", "server-requests", "hit-rate"},
		Notes: []string{
			"extension of the paper's coherence concern to name caches: an",
			"uninvalidated cache serves stale meanings indefinitely; the",
			"revision-tracked cache bounds staleness to one round-trip.",
		},
	}
	for _, scheme := range []string{"none", "plain", "coherent"} {
		stale, served, hitRate, err := a4Run(scheme)
		if err != nil {
			return nil, err
		}
		t.AddRow(scheme, itoa(a4Lookups), itoa(stale), itoa(served), f2(hitRate))
	}
	return t, nil
}

func a4Run(scheme string) (stale, served int, hitRate float64, err error) {
	const (
		// names is the number of distinct remote names.
		names = 50
		// churnEvery rebinds one random name every this many lookups.
		churnEvery = 25
		// seed drives lookup and churn choices.
		seed = 17
	)
	w := core.NewWorld()
	var spec strings.Builder
	paths := make([]core.Path, names)
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
	truth := make([]core.Entity, names)
	for i, p := range paths {
		if truth[i], err = tr.Lookup(p); err != nil {
			return 0, 0, 0, err
		}
	}
	dirEnt, err := tr.Lookup(core.PathOf("dir"))
	if err != nil {
		return 0, 0, 0, err
	}
	var opts []cluster.ClientOption
	if scheme == "coherent" {
		opts = append(opts, cluster.WithLRU(a4CacheSize))
	}
	// The cluster's own routing table: no bootstrap request is counted.
	c := cluster.NewClient("tcp", cl.Routes(), opts...)
	defer c.Close()
	var client interface {
		coherence.Resolver
		Metrics() cluster.ClientMetrics
	} = c
	if scheme == "plain" {
		client = &plainCacheResolver{c: c, cache: lru.New[string, core.Entity](a4CacheSize)}
	}

	gen := workload.New(seed)
	lookupSeq := gen.Zipf(a4Lookups, names)
	dirCtx, _ := w.ContextOf(dirEnt)
	for i, idx := range lookupSeq {
		if i > 0 && i%churnEvery == 0 {
			victim := gen.Intn(names)
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
	if m := client.Metrics(); m.Hits+m.Misses > 0 {
		hitRate = float64(m.Hits) / float64(m.Hits+m.Misses)
	}
	return stale, cl.Metrics().Served, hitRate, nil
}
