// Package check is an fsck for naming graphs: it scans a World for
// structural findings — bindings to entities the world does not contain,
// and cycles.
//
// Cycles are legal in the model (the paper's naming graph is an arbitrary
// directed graph), so they are reported as informational findings rather
// than errors; dangling bindings are always defects.
package check
