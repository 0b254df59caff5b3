// Package lru provides the one small cache shared by the name-server
// client and the cluster client, so cache-eviction behaviour (and therefore
// every cache benchmark) is deterministic across runs. Its policy is SIEVE,
// not least-recently-used: a hit sets a bit and moves nothing, so a scan of
// names read once does not flush the names read often. The package path,
// cluster.WithLRU, nameserver.WithCache and nsq -cache keep the names they
// had under LRU because bench/ (nsload) imports and drives them.
package lru
