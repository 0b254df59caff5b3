package experiments

import (
	"fmt"
	"os"
	"sort"

	"namecoherence/internal/cluster"
	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/snapstore"
)

const (
	// e16Shards is E16's cluster size; e16Replicas is servers per shard.
	e16Shards, e16Replicas = 4, 3
	// e16Lives is how many times the cluster is brought up over the same
	// store. Life 1 builds from the spec; every later life is a recovery.
	e16Lives = 3
)

// treeResolver adapts a shard subtree to the coherence probe interface.
type treeResolver struct{ tr *dirtree.Tree }

func (r treeResolver) Resolve(p core.Path) (core.Entity, error) { return r.tr.Lookup(p) }

// e16 measures the durable content-addressed snapshot store under restart
// churn: the durability story of §4's shared naming graph. Replicas of
// one subtree are content-addressed into one set of blobs (dedup ratio
// ≥ the replica count), a killed-and-restarted cluster recovers every
// shard from the store at its committed revision, replicas are brought up
// by hash-diff catch-up rather than full transfer, and the store-restored
// replicas still satisfy weak coherence — every name names "the same
// replicated object" across them.
func e16() (*Table, error) {
	// prefixes is the number of top-level subtrees; filesPerPrefix the
	// names under each.
	const prefixes, filesPerPrefix = 8, 4
	t := &Table{
		Header: []string{"life", "recovered", "caught-up", "copied", "pruned",
			"blobs", "dedup-ratio", "weak-coherence", "roots-agree"},
		Notes: []string{
			"replicas of one shard subtree hash to one Merkle root, so R",
			"replicas snapshot into one blob set (dedup-ratio ≈ R); every",
			"life after the first recovers all shards from the manifest and",
			"transfers only missing subtrees (shared ones are pruned whole",
			"by one hash check); store-restored replicas keep weak",
			"coherence at 1.0.",
		},
	}
	dir, err := os.MkdirTemp("", "e16-snapstore-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	spec, paths := e14Spec(prefixes, filesPerPrefix)
	for life := 1; life <= e16Lives; life++ {
		row, err := e16Life(dir, spec, paths, life)
		if err != nil {
			return nil, fmt.Errorf("life %d: %w", life, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// e16Life is one bring-up/serve/mutate/kill cycle over the shared store.
func e16Life(dir, spec string, paths []core.Path, life int) ([]string, error) {
	st, err := snapstore.Open(dir)
	if err != nil {
		return nil, err
	}
	w := core.NewWorld()
	cl, err := cluster.NewReplicated(w, spec, e16Shards, e16Replicas,
		cluster.WithSnapStore(st))
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	recovered := 0
	for i := 0; i < cl.Shards(); i++ {
		if _, ok := cl.Recovered(i); ok {
			recovered++
		}
	}
	copied, pruned := 0, 0
	catchUps := cl.CatchUps()
	for _, s := range catchUps {
		copied += s.Copied
		pruned += s.Skipped
	}

	// Earlier lives' mutations must have survived the kill.
	routes := cl.Routes()
	for l := 1; l < life; l++ {
		for _, p := range e16Extras(cl, l) {
			if _, err := cl.Trees[routes.ShardFor(p)].Lookup(p); err != nil {
				return nil, fmt.Errorf("life %d mutation lost: %q: %w", l, p, err)
			}
		}
	}

	// Snapshot every replica of every shard into the one store: replicas
	// are hash-identical, so this is where content addressing collapses R
	// copies into one blob set.
	rootsAgree := true
	for i := 0; i < cl.Shards(); i++ {
		primary, err := cl.ShardRoot(st, i, 0)
		if err != nil {
			return nil, err
		}
		for r := 1; r < cl.ReplicasPerShard(); r++ {
			h, err := cl.ShardRoot(st, i, r)
			if err != nil {
				return nil, err
			}
			rootsAgree = rootsAgree && h == primary
		}
	}

	// Weak coherence across the (possibly store-restored) replicas of each
	// shard, probed shard-locally: a replica only serves its own subtree.
	byShard := make(map[int][]core.Path)
	for _, p := range paths {
		s := routes.ShardFor(p)
		byShard[s] = append(byShard[s], p)
	}
	meaningful, weak := 0, 0
	for i := 0; i < cl.Shards(); i++ {
		resolvers := make([]coherence.Resolver, cl.ReplicasPerShard())
		for r := range resolvers {
			resolvers[r] = treeResolver{tr: cl.ReplicaTrees[i][r]}
		}
		rep := coherence.MeasureResolvers(w, resolvers, byShard[i])
		meaningful += rep.Meaningful()
		weak += rep.Coherent + rep.Weak
	}
	weakDegree := 1.0
	if meaningful > 0 {
		weakDegree = float64(weak) / float64(meaningful)
	}

	// Mutate each shard and commit the new root: the next life must
	// recover this, not the spec.
	for _, p := range e16Extras(cl, life) {
		i := routes.ShardFor(p)
		if _, err := cl.Trees[i].Create(p, fmt.Sprintf("life-%d", life)); err != nil {
			return nil, err
		}
		root, err := cl.ShardRoot(st, i, 0)
		if err != nil {
			return nil, err
		}
		if err := st.Commit(i, cl.Server(i).Revision(), root); err != nil {
			return nil, err
		}
	}

	stats := st.CAS().Stats()
	return []string{
		itoa(life), itoa(recovered), itoa(len(catchUps)), itoa(copied), itoa(pruned),
		itoa(stats.Stored), f2(stats.DedupRatio()), f2(weakDegree), yesNo(rootsAgree),
	}, nil
}

// e16Extras returns one new path per shard for the given life, placed
// under the lexically first prefix each shard serves.
func e16Extras(cl *cluster.Cluster, life int) []core.Path {
	firstPrefix := make(map[int]string)
	for prefix, shard := range cl.Plan.Prefixes {
		if cur, ok := firstPrefix[shard]; !ok || prefix < cur {
			firstPrefix[shard] = prefix
		}
	}
	shards := make([]int, 0, len(firstPrefix))
	for shard := range firstPrefix {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	var out []core.Path
	for _, shard := range shards {
		out = append(out, core.ParsePath(fmt.Sprintf("%s/extra%02d", firstPrefix[shard], life)))
	}
	return out
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
