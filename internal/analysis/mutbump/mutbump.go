// Package mutbump enforces the write path's revision discipline as a
// build error: inside the server packages, any function that mutates a
// binding — calls Bind or Unbind on a context-shaped value — must reach a
// revision advance (a //namingvet:revbump function, i.e. Server.Bump or
// Server.SetRevision) before it can return. A mutation that never bumps
// is exactly the coherence hole ISSUE 7 closes: the graph changes, the
// revision stands still, and every coherent cache keeps serving the old
// binding with no way to find out.
//
// Two exemptions keep the rule precise:
//
//  1. Context implementations themselves (methods on a context-shaped
//     receiver, e.g. UnionContext.Bind writing through to its first
//     layer's Bind) are the mutation primitives being guarded, not clients
//     of them. A watched BasicContext needs no exemption of its own: its
//     change hook is a field of the primitive, not a wrapper around it.
//  2. Construction-time code that reaches no revision state at all is
//     outside the server packages' scope by definition — the Scope list
//     names only packages that serve live clients.
package mutbump

import (
	"go/types"

	"namecoherence/internal/analysis"
)

// Analyzer is the mutbump analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "mutbump",
	Doc:  "requires binding mutations in server packages to reach a revision bump (//namingvet:revbump) before replying",
	Run:  run,
	// Scope limits the analyzer to packages that serve live clients, where an
	// unbumped mutation means stale caches rather than a tree under assembly.
	Scope: []string{"nameserver", "cluster"},
}

func run(pass *analysis.Pass) (any, error) {
	for _, ff := range pass.Facts.Own {
		checkMutations(pass, ff)
	}
	return nil, nil
}

// checkMutations reports every context mutation in a function that
// neither is a context implementation nor reaches a revision advance.
func checkMutations(pass *analysis.Pass, ff *analysis.FuncFacts) {
	if ff.Summary.ReachesRevBump {
		return
	}
	if recv := ff.Fn.Type().(*types.Signature).Recv(); recv != nil && isContextShaped(recv.Type()) {
		// A context implementation (or wrapper) IS the mutation primitive;
		// the obligation sits with whoever calls it.
		return
	}
	for _, cs := range pass.Facts.Graph.Calls[ff.Fn] {
		name := cs.Callee.Name()
		if name != "Bind" && name != "Unbind" {
			continue
		}
		recv := cs.Callee.Type().(*types.Signature).Recv()
		if recv == nil || !isContextShaped(recv.Type()) {
			continue
		}
		pass.Reportf(cs.Pos,
			"%s mutates a binding (%s.%s) but never reaches a revision bump — coherent caches go silently stale (mark the advance with %s or route through one)",
			ff.Fn.Name(), typeName(recv.Type()), name, analysis.RevBumpDirective)
	}
}

// isContextShaped is the duck test for core.Context and its
// implementations: Lookup, Bind, Unbind, Names.
func isContextShaped(t types.Type) bool {
	return analysis.HasMethods(t, "Lookup", "Bind", "Unbind", "Names")
}

// typeName renders a receiver type compactly for diagnostics.
func typeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
