package experiments

import (
	"fmt"
	"strings"
	"sync"

	"namecoherence/internal/cluster"
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/workload"
)

var (
	// e14ShardCounts is the sweep of E14's cluster sizes.
	e14ShardCounts = []int{1, 2, 4, 8}
	// e14BatchSizes is the sweep of names per round-trip (1 = unbatched).
	e14BatchSizes = []int{1, 8, 64}
)

const (
	// e14Clients is how many concurrent cluster clients drive E14's
	// workload.
	e14Clients = 8
	// e14Prefixes is the number of top-level subtrees (the units of
	// prefix delegation).
	e14Prefixes = 16
	// e14FilesPerPrefix is how many names live under each prefix.
	e14FilesPerPrefix = 8
	// e14Lookups is the number of (Zipf-distributed) lookups per client.
	e14Lookups = 200
	// e14CacheSize is each client's cache capacity.
	e14CacheSize = 64
	// e14Seed drives the per-client Zipf samplers.
	e14Seed = 23
)

// e14Spec builds the cluster's treespec and the probe paths.
func e14Spec(prefixes, filesPerPrefix int) (string, []core.Path) {
	var sb strings.Builder
	var paths []core.Path
	for d := 0; d < prefixes; d++ {
		for f := 0; f < filesPerPrefix; f++ {
			p := fmt.Sprintf("sub%02d/f%02d", d, f)
			fmt.Fprintf(&sb, "file /%s %q\n", p, "x")
			paths = append(paths, core.ParsePath(p))
		}
	}
	return sb.String(), paths
}

// e14 measures strict coherence and wire traffic of a prefix-sharded
// naming cluster under concurrent clients and batched resolution: §5.2's
// strict-coherence claim over a real sharded deployment, one logical
// naming graph partitioned across N name servers by prefix, driven by
// concurrent batching clients with revision-tracked caches. Fig. 4's
// collection of servers jointly administering one shared graph must look
// like a single coherent space — strict degree 1.0 for every shared-prefix
// name, at any shard count and batch size — while batching collapses wire
// requests by the batch factor.
func e14() (*Table, error) {
	t := &Table{
		Header: []string{"shards", "batch", "lookups", "wire-reqs", "reqs/lookup",
			"hit-rate", "strict-coherence"},
		Notes: []string{
			"§5.2 / Fig. 4: prefix-delegated shards of one shared graph stay",
			"strictly coherent for every client of every shard; batching",
			"divides wire crossings without touching coherence.",
		},
	}
	for _, shards := range e14ShardCounts {
		for _, batch := range e14BatchSizes {
			row, err := e14Row(shards, batch)
			if err != nil {
				return nil, fmt.Errorf("shards=%d batch=%d: %w", shards, batch, err)
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// e14Row runs one (shards, batch) cell: concurrent clients drive Zipf
// lookups, then every client is probed for every name.
func e14Row(shards, batch int) ([]string, error) {
	spec, paths := e14Spec(e14Prefixes, e14FilesPerPrefix)
	w := core.NewWorld()
	cl, err := cluster.New(w, spec, shards)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	clients := make([]*cluster.Client, e14Clients)
	for i := range clients {
		clients[i], err = cluster.Dial("tcp", cl.Addrs()[i%len(cl.Addrs())],
			cluster.WithLRU(e14CacheSize))
		if err != nil {
			return nil, err
		}
		defer clients[i].Close()
	}

	var wg sync.WaitGroup
	errs := make(chan error, e14Clients)
	for i, client := range clients {
		wg.Add(1)
		go func(i int, client *cluster.Client) {
			defer wg.Done()
			gen := workload.New(e14Seed + int64(i))
			idx := gen.Zipf(e14Lookups, len(paths))
			for at := 0; at < len(idx); at += batch {
				end := min(at+batch, len(idx))
				req := make([]core.Path, 0, end-at)
				for _, k := range idx[at:end] {
					req = append(req, paths[k])
				}
				results, err := client.ResolveBatch(req)
				if err != nil {
					errs <- err
					return
				}
				for _, res := range results {
					if res.Err != nil {
						errs <- res.Err
						return
					}
				}
			}
		}(i, client)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	wireReqs := cl.Metrics().Served
	lookups := e14Clients * e14Lookups
	hits, misses := 0, 0
	for _, client := range clients {
		m := client.Metrics()
		hits += m.Hits
		misses += m.Misses
	}

	// The coherence probe: every client of every shard, every name.
	resolvers := make([]coherence.Resolver, len(clients))
	for i, client := range clients {
		resolvers[i] = client
	}
	rep := coherence.MeasureResolvers(w, resolvers, paths)

	return []string{
		itoa(shards), itoa(batch), itoa(lookups), itoa(wireReqs),
		f2(float64(wireReqs) / float64(lookups)),
		f2(float64(hits) / float64(hits+misses)),
		f2(rep.StrictDegree()),
	}, nil
}
