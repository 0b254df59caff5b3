package experiments

import (
	"fmt"
	"sync"
	"time"

	"namecoherence/internal/cluster"
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/faultnet"
	"namecoherence/internal/workload"
)

// E15Config parameterizes experiment E15: availability and coherence of a
// replicated sharded cluster while one replica per shard is down.
type E15Config struct {
	// Shards is the cluster size; Replicas is servers per shard.
	Shards, Replicas int
	// Prefixes is the number of top-level subtrees; FilesPerPrefix the
	// names under each.
	Prefixes, FilesPerPrefix int
	// Clients is how many concurrent failover clients drive the workload.
	Clients int
	// Lookups is the number of (Zipf-distributed) lookups per client per
	// phase.
	Lookups int
	// CacheSize is each client's cache capacity.
	CacheSize int
	// Timeout bounds every dial and round-trip; Retries is the extra
	// attempts after a transport failure.
	Timeout time.Duration
	Retries int
	// Seed drives the per-client Zipf samplers.
	Seed int64
}

// DefaultE15 returns the standard configuration.
func DefaultE15() E15Config {
	return E15Config{
		Shards:         4,
		Replicas:       2,
		Prefixes:       8,
		FilesPerPrefix: 4,
		Clients:        4,
		Lookups:        100,
		// Smaller than the name set, so lookups keep crossing the wire
		// (an over-sized cache would hide the faults entirely).
		CacheSize: 16,
		Timeout:   250 * time.Millisecond,
		Retries:   3,
		Seed:      29,
	}
}

// Budget is the worst-case wall time one lookup may take under the
// failure model: per attempt one bounded dial plus one bounded
// round-trip, for 1+Retries attempts, plus the (capped) backoff waits.
func (cfg E15Config) Budget() time.Duration {
	attempts := time.Duration(cfg.Retries + 1)
	return attempts*2*cfg.Timeout + attempts*200*time.Millisecond
}

// E15 measures the fault-tolerance claim behind weak coherence (§3): when
// every shard of the Fig. 4 shared graph is served by R replicas of the
// same subtree, killing one replica per shard must leave every name
// resolvable (availability 1.0) and every pair of clients agreeing at
// least up to replica groups (weak-coherence degree 1.0), with no lookup
// blocking past its deadline budget.
func E15(cfg E15Config) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: title("E15"),
		Header: []string{"phase", "lookups", "ok", "availability", "failovers",
			"max-ms", "budget-ms", "weak-coherence", "strict-coherence"},
		loadDependent: []string{"max-ms"},
		Notes: []string{
			"§3 weak coherence as a fault-tolerance contract: replicas of one",
			"shard subtree are one replica group, so failover across them keeps",
			"every name meaning 'the same replicated object' even while a",
			"replica per shard is down; deadlines bound every lookup.",
		},
	}
	spec, paths := e14Spec(cfg.Prefixes, cfg.FilesPerPrefix)
	w := core.NewWorld()
	cl, err := cluster.NewReplicated(w, spec, cfg.Shards, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	clients := make([]*cluster.Client, cfg.Clients)
	for i := range clients {
		clients[i], err = cluster.Dial("tcp", cl.Addrs()[i%len(cl.Addrs())],
			cluster.WithLRU(cfg.CacheSize),
			cluster.WithTimeout(cfg.Timeout),
			cluster.WithRetries(cfg.Retries),
			cluster.WithBackoff(time.Millisecond),
			cluster.WithBreaker(2, 100*time.Millisecond))
		if err != nil {
			return nil, err
		}
		defer clients[i].Close()
	}

	phases := []struct {
		name   string
		inject func()
	}{
		{"healthy", func() {}},
		{"one-down", func() {
			// One replica per shard dies; rotating the victim index mixes
			// dead primaries with dead secondaries.
			for shard := 0; shard < cl.Shards(); shard++ {
				cl.Fault(shard, shard%cfg.Replicas).SetMode(faultnet.Reset)
			}
		}},
	}
	for _, phase := range phases {
		phase.inject()
		row, err := e15Phase(cfg, cl, clients, paths, phase.name)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", phase.name, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// e15Phase drives one phase's concurrent Zipf lookups and probes
// coherence across every client afterwards.
func e15Phase(cfg E15Config, cl *cluster.Cluster, clients []*cluster.Client,
	paths []core.Path, name string) ([]string, error) {
	failoversBefore := 0
	for _, c := range clients {
		failoversBefore += c.Failovers()
	}

	type outcome struct {
		ok, total int
		maxWait   time.Duration
	}
	outcomes := make([]outcome, len(clients))
	var wg sync.WaitGroup
	for i, client := range clients {
		wg.Add(1)
		go func(i int, client *cluster.Client) {
			defer wg.Done()
			gen := workload.New(cfg.Seed + int64(i))
			for _, k := range gen.Zipf(cfg.Lookups, len(paths)) {
				start := now()
				_, err := client.Resolve(paths[k])
				wait := since(start)
				outcomes[i].total++
				if err == nil {
					outcomes[i].ok++
				}
				if wait > outcomes[i].maxWait {
					outcomes[i].maxWait = wait
				}
			}
		}(i, client)
	}
	wg.Wait()

	ok, total, failovers := 0, 0, -failoversBefore
	var maxWait time.Duration
	for i, c := range clients {
		ok += outcomes[i].ok
		total += outcomes[i].total
		failovers += c.Failovers()
		if outcomes[i].maxWait > maxWait {
			maxWait = outcomes[i].maxWait
		}
	}

	// The coherence probe: every client, every name, failover included.
	resolvers := make([]coherence.Resolver, len(clients))
	for i, client := range clients {
		resolvers[i] = client
	}
	rep := coherence.MeasureResolvers(cl.World, resolvers, paths)

	return []string{
		name, itoa(total), itoa(ok),
		f2(float64(ok) / float64(total)),
		itoa(failovers),
		itoa(int(maxWait.Milliseconds())),
		itoa(int(cfg.Budget().Milliseconds())),
		f2(rep.WeakDegree()),
		f2(rep.StrictDegree()),
	}, nil
}
