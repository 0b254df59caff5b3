// Package cluster partitions one logical naming graph across several name
// servers by first-component prefix — the paper's shared naming graph
// (§5.2, Fig. 4) as a collection of servers jointly administering one
// coherent space, the way Andrew's /vice servers and OSF DCE cells carve a
// shared tree into prefix-delegated subtrees.
//
// Cluster is the server side: it splits a treespec into per-shard subtrees
// (treespec.Split), serves each shard from its own name server, and
// installs the routing table on every member so a client can bootstrap
// from any of them. Over a snapshot store (WithSnapStore) it also owns
// durability: a shard with a committed root is restored from it instead of
// built, and each shard whose primary's revision has moved past its
// manifest entry is committed every interval and once more at Close, its
// encoder told what the primary's commit log says changed.
//
// Client is the scalable front end: it routes each name to its shard,
// pools connections per shard, batches multi-name resolutions into one
// round-trip per shard, coalesces concurrent identical lookups
// (singleflight), and keeps a revision-tracked cache whose entries are
// purged per shard when that shard's binding revision advances: staleness
// is bounded by one round-trip to the shard, across the whole cluster (a
// lone server is a one-shard cluster). It is the module's only
// revision-tracked cache. A lookup renders its cache key and checks the
// name's canonical form (§6) in one pass, nameserver.AppendWireKey, into a
// buffer the client reuses: a hit allocates nothing for keys of up to 32
// bytes, and the key string is made once, on a miss. The key finds an
// entry; what a pushed frame purges is still decided by (directory entity,
// final component), since one binding answers under many paths.
package cluster
