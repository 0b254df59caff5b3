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

// E17Config parameterizes experiment E17: coherence degree under
// concurrent writer/reader churn, poll-validated vs push-invalidated.
type E17Config struct {
	// Shards is the cluster size; Replicas is servers per shard.
	Shards, Replicas int
	// Prefixes and FilesPerPrefix shape the base tree (see e14Spec).
	Prefixes, FilesPerPrefix int
	// Readers is the number of caching clients resolving throughout the
	// churn; Cache is each reader's LRU capacity.
	Readers, Cache int
	// Writers is the number of mutating clients; each performs
	// WritesPerWriter rebind cycles (mkcontext + unbind + bind) against
	// its own set of victim names.
	Writers, WritesPerWriter int
}

// DefaultE17 returns the standard configuration.
func DefaultE17() E17Config {
	return E17Config{
		Shards:          4,
		Replicas:        2,
		Prefixes:        8,
		FilesPerPrefix:  6,
		Readers:         4,
		Cache:           128,
		Writers:         4,
		WritesPerWriter: 8,
	}
}

// routedResolver answers probes from the cluster's own primary subtrees —
// the ground truth the caching readers are compared against. Without it a
// uniformly stale set of readers would agree with each other and read as
// coherent; disagreement with the authoritative graph is what makes
// staleness visible to the probe.
type routedResolver struct{ cl *cluster.Cluster }

func (r routedResolver) Resolve(p core.Path) (core.Entity, error) {
	return r.cl.Trees[r.cl.Routes().ShardFor(p)].Lookup(p)
}

// E17 measures what the wire-level write path does to §5's coherence
// story. Caching readers resolve continuously while writers rebind live
// names over the wire (every rebind retargets a name at a freshly created
// context, so a stale cache entry is a visibly different entity). With
// poll validation a reader only learns of a revision move on its next
// cache miss — a cache full of hits never learns, and the probe finds the
// stale entries incoherent against the authoritative graph. With push
// invalidation the server's frames purge the caches as the writes commit,
// and coherence survives the churn. Two of every three writes here move a
// directory, which no frame can describe more narrowly than "everything":
// hit-ratio is what the readers kept through a churn of that kind.
func E17(cfg E17Config) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: title("E17"),
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
		row, err := e17Phase(cfg, push)
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
func e17Phase(cfg E17Config, push bool) ([]string, error) {
	spec, paths := e14Spec(cfg.Prefixes, cfg.FilesPerPrefix)
	w := core.NewWorld()
	cl, err := cluster.NewReplicated(w, spec, cfg.Shards, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	readers := make([]*cluster.Client, cfg.Readers)
	for i := range readers {
		opts := []cluster.ClientOption{cluster.WithLRU(cfg.Cache)}
		if push {
			opts = append(opts, cluster.WithPushInvalidation())
		}
		readers[i], err = cluster.Dial("tcp", cl.Addrs()[0], opts...)
		if err != nil {
			return nil, err
		}
		defer readers[i].Close()
	}
	writers := make([]*cluster.Client, cfg.Writers)
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
	nVictims := cfg.Writers * cfg.WritesPerWriter
	if nVictims > len(paths) {
		nVictims = len(paths)
	}
	victims := paths[:nVictims]

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
	writeErrs := make([]error, cfg.Writers)
	var wrote atomic.Int64
	var wg sync.WaitGroup
	for wi := range writers {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			wr := writers[wi]
			for i := wi; i < len(victims); i += cfg.Writers {
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
			n += r.Invalidations()
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
		h, m := r.Stats()
		hits += h
		misses += m
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
