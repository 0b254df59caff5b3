// Package persist serializes worlds — entities, labels, context bindings,
// file payloads and replica groups — to a canonical binary snapshot (see persist.go) and reconstructs
// them, preserving entity identity (IDs are stable across a round trip).
//
// Context states are snapshotted through the Context interface, so wrapped
// contexts (watched, counting) are persisted as their visible bindings;
// the wrappers themselves are runtime instrumentation and are not
// recreated on load. Opaque non-FileData states are skipped and reported.
package persist
