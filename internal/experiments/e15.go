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

const (
	// e15Lookups is the number of (Zipf-distributed) lookups per client
	// per phase.
	e15Lookups = 100
	// e15Timeout bounds every dial and round-trip; e15Retries is the extra
	// attempts after a transport failure.
	e15Timeout = 250 * time.Millisecond
	e15Retries = 3
	// e15Budget is the worst-case wall time one lookup may take under the
	// failure model: per attempt one bounded dial plus one bounded
	// round-trip, for 1+e15Retries attempts, plus the (capped) backoff
	// waits.
	e15Budget = (e15Retries+1)*2*e15Timeout + (e15Retries+1)*200*time.Millisecond
	// e15Seed drives the per-client Zipf samplers.
	e15Seed = 29
)

// e15 measures availability and coherence of a replicated sharded cluster
// while one replica per shard is down: the fault-tolerance claim behind
// weak coherence (§3). When every shard of the Fig. 4 shared graph is
// served by R replicas of the same subtree, killing one replica per shard
// must leave every name resolvable (availability 1.0) and every pair of
// clients agreeing at least up to replica groups (weak-coherence degree
// 1.0), with no lookup blocking past its deadline budget.
func e15() (*Table, error) {
	const (
		// shards is the cluster size; replicas is servers per shard.
		shards, replicas = 4, 2
		// prefixes is the number of top-level subtrees; filesPerPrefix the
		// names under each.
		prefixes, filesPerPrefix = 8, 4
		// nClients is how many concurrent failover clients drive the
		// workload.
		nClients = 4
		// cacheSize is each client's cache capacity: smaller than the name
		// set, so lookups keep crossing the wire (an over-sized cache would
		// hide the faults entirely).
		cacheSize = 16
	)
	t := &Table{
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
	spec, paths := e14Spec(prefixes, filesPerPrefix)
	w := core.NewWorld()
	cl, err := cluster.NewReplicated(w, spec, shards, replicas)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	clients := make([]*cluster.Client, nClients)
	for i := range clients {
		clients[i], err = cluster.Dial("tcp", cl.Addrs()[i%len(cl.Addrs())],
			cluster.WithLRU(cacheSize),
			cluster.WithTimeout(e15Timeout),
			cluster.WithRetries(e15Retries),
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
				cl.Fault(shard, shard%replicas).SetMode(faultnet.Reset)
			}
		}},
	}
	for _, phase := range phases {
		phase.inject()
		row, err := e15Phase(cl, clients, paths, phase.name)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", phase.name, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// e15Phase drives one phase's concurrent Zipf lookups and probes
// coherence across every client afterwards.
func e15Phase(cl *cluster.Cluster, clients []*cluster.Client,
	paths []core.Path, name string) ([]string, error) {
	failoversBefore := 0
	for _, c := range clients {
		failoversBefore += c.Metrics().Failovers
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
			gen := workload.New(e15Seed + int64(i))
			for _, k := range gen.Zipf(e15Lookups, len(paths)) {
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
		failovers += c.Metrics().Failovers
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
		itoa(int(e15Budget.Milliseconds())),
		f2(rep.WeakDegree()),
		f2(rep.StrictDegree()),
	}, nil
}
