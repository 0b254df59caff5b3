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

// E14Config parameterizes experiment E14: strict coherence and wire
// traffic of a prefix-sharded naming cluster under concurrent clients and
// batched resolution.
type E14Config struct {
	// ShardCounts is the sweep of cluster sizes.
	ShardCounts []int
	// BatchSizes is the sweep of names per round-trip (1 = unbatched).
	BatchSizes []int
	// Clients is how many concurrent cluster clients drive the workload.
	Clients int
	// Prefixes is the number of top-level subtrees (the units of
	// prefix delegation).
	Prefixes int
	// FilesPerPrefix is how many names live under each prefix.
	FilesPerPrefix int
	// Lookups is the number of (Zipf-distributed) lookups per client.
	Lookups int
	// CacheSize is each client's LRU capacity.
	CacheSize int
	// Seed drives the per-client Zipf samplers.
	Seed int64
}

// DefaultE14 returns the standard configuration.
func DefaultE14() E14Config {
	return E14Config{
		ShardCounts:    []int{1, 2, 4, 8},
		BatchSizes:     []int{1, 8, 64},
		Clients:        8,
		Prefixes:       16,
		FilesPerPrefix: 8,
		Lookups:        200,
		CacheSize:      64,
		Seed:           23,
	}
}

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

// E14 measures §5.2's strict-coherence claim over a real sharded
// deployment: one logical naming graph partitioned across N name servers
// by prefix, driven by concurrent batching clients with revision-tracked
// LRU caches. Fig. 4's collection of servers jointly administering one
// shared graph must look like a single coherent space — strict degree 1.0
// for every shared-prefix name, at any shard count and batch size — while
// batching collapses wire requests by the batch factor.
func E14(cfg E14Config) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: title("E14"),
		Header: []string{"shards", "batch", "lookups", "wire-reqs", "reqs/lookup",
			"hit-rate", "strict-coherence"},
		Notes: []string{
			"§5.2 / Fig. 4: prefix-delegated shards of one shared graph stay",
			"strictly coherent for every client of every shard; batching",
			"divides wire crossings without touching coherence.",
		},
	}
	for _, shards := range cfg.ShardCounts {
		for _, batch := range cfg.BatchSizes {
			row, err := e14Row(cfg, shards, batch)
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
func e14Row(cfg E14Config, shards, batch int) ([]string, error) {
	spec, paths := e14Spec(cfg.Prefixes, cfg.FilesPerPrefix)
	w := core.NewWorld()
	cl, err := cluster.New(w, spec, shards)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	clients := make([]*cluster.Client, cfg.Clients)
	for i := range clients {
		clients[i], err = cluster.Dial("tcp", cl.Addrs()[i%len(cl.Addrs())],
			cluster.WithLRU(cfg.CacheSize))
		if err != nil {
			return nil, err
		}
		defer clients[i].Close()
	}

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Clients)
	for i, client := range clients {
		wg.Add(1)
		go func(i int, client *cluster.Client) {
			defer wg.Done()
			gen := workload.New(cfg.Seed + int64(i))
			idx := gen.Zipf(cfg.Lookups, len(paths))
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

	wireReqs := cl.Served()
	lookups := cfg.Clients * cfg.Lookups
	hits, misses := 0, 0
	for _, client := range clients {
		h, m := client.Stats()
		hits += h
		misses += m
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
