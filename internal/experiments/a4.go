package experiments

import (
	"fmt"
	"strings"

	"namecoherence/internal/cluster"
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/workload"
)

const (
	// a4Lookups is the number of lookups A4 issues per cache discipline.
	a4Lookups = 1000
	// a4CacheSize sizes the caches under test.
	a4CacheSize = 64
)

// a4Dial connects one cache discipline's client to the one-shard cluster
// and returns it with a read of its cache hits and misses (the wire client's
// and the cluster client's Metrics differ) and its close function.
func a4Dial(scheme string, cl *cluster.Cluster) (coherence.Resolver, func() (hits, misses int), func(), error) {
	if scheme == "coherent" {
		// The cluster's own routing table: no bootstrap request is counted.
		c := cluster.NewClient("tcp", cl.Routes(), cluster.WithLRU(a4CacheSize))
		return c, func() (int, int) { m := c.Metrics(); return m.Hits, m.Misses }, c.Close, nil
	}
	var opts []nameserver.ClientOption
	if scheme == "plain" {
		opts = append(opts, nameserver.WithCache(a4CacheSize))
	}
	c, err := nameserver.Dial("tcp", cl.Addrs()[0], opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, func() (int, int) { m := c.Metrics(); return m.Hits, m.Misses }, func() { _ = c.Close() }, nil
}

// a4 measures stale reads under binding churn for each cache discipline.
// It interleaves lookups with server-side rebinding and counts stale reads
// (lookups that returned an entity other than the current binding) for the
// no-cache, plain-cache (nameserver.WithCache) and coherent-cache
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
	client, stats, closeClient, err := a4Dial(scheme, cl)
	if err != nil {
		return 0, 0, 0, err
	}
	defer closeClient()

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
	hits, misses := stats()
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return stale, cl.Metrics().Served, hitRate, nil
}
