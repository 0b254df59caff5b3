// Package lru provides the module's one small cache: the cluster client's
// revision-tracked cache keeps its entries here, so cache-eviction
// behaviour (and therefore every cache benchmark) is deterministic across
// runs. Its policy is SIEVE, not least-recently-used: a hit sets a bit and
// moves nothing, so a scan of names read once does not flush the names
// read often. The package path, cluster.WithLRU and nsq -cache keep the
// names they had under LRU because bench/ (nsload) imports and drives
// them; nameserver.WithCache, the wire client's never-invalidated cache,
// survives over it only for nsload's ladder.
package lru
