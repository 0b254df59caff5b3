// Package snapstore is the naming graph's durable form: a Merkle tree of
// content-addressed context blobs over internal/cas. Every context object
// (directory) serializes to one canonical blob whose bytes incorporate its
// children's hashes, so one root hash names an entire subtree — and two
// subtrees with the same structure have the same root hash no matter which
// replica built them. That is the paper's weak coherence made structural:
// "replicas of the same subtree agree" stops being a protocol promise and
// becomes an identity in the store (pachyderm-hashtree-style nodes over a
// restic-style blob repository).
//
// The encoding is canonical — sorted bindings, varint framing, no
// reflection — so Snapshot∘Restore is a fixed point on root hashes, and it
// is the module's one on-disk context encoding. Cross-links that share a
// subtree become hash sharing; links back to an ancestor (cycles,
// including ".." parent links) are encoded as stack-relative cycle
// references, the Merkle analogue of a relative name: they are re-resolved
// against the access path on restore (§6's closure question, answered the
// paper's way).
//
// Store adds a revision-history manifest (shard revision → root hash,
// written atomically by cas.Publish, as the blobs are) for crash
// recovery, Diff for O(changed) comparison of two roots, CatchUp for
// replica bring-up that copies only missing subtrees, and Encoder, which
// keeps repeated snapshots of one subtree proportional to what changed.
// When a serving shard is committed is not decided here:
// internal/cluster, which owns the shard's write lock and commit log,
// flushes it periodically and at Close (cluster.WithSnapStore).
package snapstore
