// Package naming is the one import of this module's own programs — the
// examples/, the commands under cmd/ and the root benchmarks — for the
// naming model of Radia & Pachl, "Coherence in Naming in Distributed
// Computing Environments" (ICDCS 1993), the schemes the paper analyses and
// the remedies it proposes.
//
// It is a convenience, not a published API: every declaration is an alias
// of an internal package, and it aliases exactly the names those programs
// use (CI fails on an alias none of them names). A type the programs only
// reach through a constructor's result — the World NewWorld returns, the
// cluster client DialShardedCluster returns — is used through its methods
// and documented in its own package.
//
// The model (Sections 2–3 of the paper): entities are activities
// (processes) and objects (files); a context is a function from names to
// entities, objects whose state is a context are directories, and compound
// names resolve through them; a closure mechanism (ActivityRule is
// R(activity)) selects the context a name is resolved in. Coherence
// (Section 4) is measured by probing names across activities: CheckName
// and Measure classify each probe as coherent, weakly coherent (replicas of
// one replicated object), vacuous or incoherent.
//
// The schemes (Section 5) and remedies (Section 6) are the Newcastle
// Connection, the shared naming graph (Andrew/DCE), cross-linked
// federations, partially qualified process identifiers, Algol-scoped
// embedded names, per-process namespaces, and a sharded, replicated name
// service over the wire.
//
// Quick start:
//
//	w := naming.NewWorld()
//	_, dir := w.NewContextObject("root")
//	file := w.NewObject("file")
//	dir.Bind("f", file)
//	e, err := w.Resolve(dir, naming.ParsePath("f"))
//
// See examples/ for complete programs and DESIGN.md for the system map.
package naming
