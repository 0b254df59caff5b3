// Package cluster partitions one logical naming graph across several name
// servers by first-component prefix — the paper's shared naming graph
// (§5.2, Fig. 4) as a collection of servers jointly administering one
// coherent space, the way Andrew's /vice servers and OSF DCE cells carve a
// shared tree into prefix-delegated subtrees.
//
// Cluster is the server side: it splits a treespec into per-shard subtrees
// (treespec.Split), serves each shard from its own name server, and
// installs the routing table on every member so a client can bootstrap
// from any of them.
//
// Client is the scalable front end: it routes each name to its shard,
// pools connections per shard, batches multi-name resolutions into one
// round-trip per shard, coalesces concurrent identical lookups
// (singleflight), and keeps a revision-tracked LRU cache whose entries are
// purged per shard when that shard's binding revision advances: staleness
// is bounded by one round-trip to the shard, across the whole cluster (a
// lone server is a one-shard cluster). It is the module's only
// revision-tracked cache.
package cluster
