package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"namecoherence/internal/cluster"
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
)

// routedResolver answers probes from the cluster's own primary subtrees —
// the ground truth the caching readers are compared against. Without it a
// uniformly stale set of readers would agree with each other and read as
// coherent; disagreement with the authoritative graph is what makes
// staleness visible to the probe.
type routedResolver struct{ cl *cluster.Cluster }

func (r routedResolver) Resolve(p core.Path) (core.Entity, error) {
	return r.cl.Trees[r.cl.Routes().ShardFor(p)].Lookup(p)
}

// e17 measures coherence degree under concurrent writer/reader churn,
// poll-validated vs push-invalidated: what the wire-level write path does
// to §5's coherence story. Caching readers resolve continuously while
// writers rebind live names over the wire (every rebind retargets a name
// at a freshly created context, so a stale cache entry is a visibly
// different entity). With poll validation a reader only learns of a
// revision move on its next cache miss — a cache full of hits never
// learns, and the probe finds the stale entries incoherent against the
// authoritative graph. With push invalidation the server's frames purge
// the caches as the writes commit, and coherence survives the churn. Two
// of every three writes here move a directory, which no frame can describe
// more narrowly than "everything": hit-ratio is what the readers kept
// through a churn of that kind.
func e17() (*Table, error) {
	t := &Table{
		Header: []string{"mode", "writes", "lookups", "hits", "invalidations",
			"strict-coherence", "weak-coherence", "hit-ratio"},
		loadDependent: []string{"lookups", "hits", "hit-ratio"},
		Notes: []string{
			"writers rebind live names to fresh contexts through the wire",
			"write path while readers resolve from coherent LRU caches; the",
			"probe compares every reader against the cluster's own subtrees.",
			"poll mode: a reader revalidates only on a cache miss, so hits",
			"keep serving the old binding. push mode: subscribed readers are",
			"purged by server frames as each write commits, one frame per",
			"commit per reader.",
		},
	}
	for _, push := range []bool{false, true} {
		row, err := e17Phase(push)
		if err != nil {
			mode := "poll"
			if push {
				mode = "push"
			}
			return nil, fmt.Errorf("%s phase: %w", mode, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// e17Phase runs one churn round on a fresh cluster and probes coherence.
func e17Phase(push bool) ([]string, error) {
	const (
		// shards is the cluster size; replicas is servers per shard.
		shards, replicas = 4, 2
		// prefixes and filesPerPrefix shape the base tree (see e14Spec).
		prefixes, filesPerPrefix = 8, 6
		// nReaders is the number of caching clients resolving throughout
		// the churn; cacheSize is each reader's cache capacity.
		nReaders, cacheSize = 4, 128
		// nWriters is the number of mutating clients; each performs
		// writesPerWriter rebind cycles (mkcontext + unbind + bind) against
		// its own set of victim names.
		nWriters, writesPerWriter = 4, 8
	)
	spec, paths := e14Spec(prefixes, filesPerPrefix)
	w := core.NewWorld()
	cl, err := cluster.NewReplicated(w, spec, shards, replicas)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	readers := make([]*cluster.Client, nReaders)
	for i := range readers {
		opts := []cluster.ClientOption{cluster.WithLRU(cacheSize)}
		if push {
			opts = append(opts, cluster.WithPushInvalidation())
		}
		readers[i], err = cluster.Dial("tcp", cl.Addrs()[0], opts...)
		if err != nil {
			return nil, err
		}
		defer readers[i].Close()
	}
	writers := make([]*cluster.Client, nWriters)
	for i := range writers {
		writers[i], err = cluster.Dial("tcp", cl.Addrs()[0])
		if err != nil {
			return nil, err
		}
		defer writers[i].Close()
	}

	// Prime every reader's cache over the whole base tree.
	for _, r := range readers {
		for _, p := range paths {
			if _, err := r.Resolve(p); err != nil {
				return nil, err
			}
		}
	}

	// Victims are the names the writers will rebind, partitioned
	// round-robin so no two writers touch the same name.
	victims := paths[:nWriters*writesPerWriter]

	// Readers churn until stopped; writers rebind their victims. Every
	// rebind is mkcontext (a fresh entity), unbind, bind — the name now
	// names something a stale cache entry visibly is not.
	stop := make(chan struct{})
	var lookups atomic.Int64
	var rg sync.WaitGroup
	for _, r := range readers {
		rg.Add(1)
		go func(r *cluster.Client) {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range paths {
					if _, err := r.Resolve(p); err == nil {
						lookups.Add(1)
					}
				}
			}
		}(r)
	}
	writeErrs := make([]error, nWriters)
	var wrote atomic.Int64
	var wg sync.WaitGroup
	for wi := range writers {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			wr := writers[wi]
			for i := wi; i < len(victims); i += nWriters {
				dir, name := victims[i][:len(victims[i])-1], victims[i][len(victims[i])-1]
				fresh, err := wr.Mkcontext(dir, core.Name(fmt.Sprintf("w%02dc%02d", wi, i)))
				if err == nil {
					err = wr.Unbind(dir, name)
				}
				if err == nil {
					err = wr.Bind(dir, name, fresh)
				}
				if err != nil {
					writeErrs[wi] = fmt.Errorf("writer %d victim %q: %w", wi, victims[i], err)
					return
				}
				wrote.Add(3)
			}
		}(wi)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	for _, err := range writeErrs {
		if err != nil {
			return nil, err
		}
	}

	// In push mode, wait for the last frames to land: every commit owes
	// every reader one (each reader primed over the whole tree, so it holds
	// a subscribed connection to every shard's primary, and 96 writes come
	// nowhere near the server's pending bound). Bounded all the same.
	invals := func() int {
		n := 0
		for _, r := range readers {
			n += r.Metrics().Invalidations
		}
		return n
	}
	if push {
		owed := int(wrote.Load()) * len(readers)
		for i := 0; i < 500 && invals() < owed; i++ {
			time.Sleep(2 * time.Millisecond)
		}
	}
	cl.DrainReplication()

	// Probe the rebound names: every reader against the ground truth.
	resolvers := make([]coherence.Resolver, 0, len(readers)+1)
	for _, r := range readers {
		resolvers = append(resolvers, r)
	}
	resolvers = append(resolvers, routedResolver{cl})
	rep := coherence.MeasureResolvers(w, resolvers, victims)

	hits, misses := 0, 0
	for _, r := range readers {
		m := r.Metrics()
		hits += m.Hits
		misses += m.Misses
	}
	mode := "poll"
	if push {
		mode = "push"
	}
	return []string{
		mode, itoa(int(wrote.Load())), itoa(int(lookups.Load())), itoa(hits),
		itoa(invals()), f2(rep.StrictDegree()), f2(rep.WeakDegree()),
		fmt.Sprintf("%.4f", float64(hits)/float64(max(1, hits+misses))),
	}, nil
}
