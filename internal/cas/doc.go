// Package cas is a content-addressed store of immutable blobs: every blob
// is identified by the SHA-256 hash of its bytes, so a blob's name IS its
// content. Identity-by-content is what makes the paper's weak coherence
// structural one level up (internal/snapstore): replicas of the same
// subtree serialize to the same blobs and therefore share one hash by
// construction — agreement is a property of the store, not a protocol
// promise.
//
// Backend is the placement seam (restic-style): Mem keeps blobs in a map
// for tests and replica bring-up scratch space; Local keeps them in a
// fanned-out directory, each written by Publish, so a blob either exists
// whole or not at all — a crashed writer leaves only a temp file that
// Verify ignores and SweepTemps removes. Publish is the module's one
// durable file write: snapstore's manifest goes through it too. Store
// layers hashing, blob verification, and dedup accounting over any
// Backend.
//
// Invariants:
//   - a stored blob's bytes never change: Put keeps no reference to the
//     caller's data and Get returns bytes the caller owns
//     (TestBackendContract, run over every backend);
//   - a file is written in one place, Publish, which fsyncs it before
//     closing and renaming it, and fsyncs the directory after the rename
//     (the durable-publish guard of cmd/namingvet's TestModuleInvariants).
package cas
