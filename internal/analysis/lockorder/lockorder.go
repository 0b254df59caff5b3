// Package lockorder detects potential deadlocks from inconsistent mutex
// acquisition order. The facts layer (analysis.lockFlow) records, per
// function, which locks may be held when each other lock is acquired —
// lock identity being receiver type + field path, so the same lock keys
// identically in every package — and carries the edges to every importer
// in its summaries. This analyzer folds every package's edges into one
// module-global acquisition graph and reports:
//
//   - ordering cycles: an edge A→B contributed by this package whose
//     reverse path B⇝A exists anywhere in the module. Two goroutines
//     interleaving the two paths deadlock;
//   - self re-acquire: a Lock/RLock on an identity already in the held
//     set, directly or through a call chain whose summary acquires it.
//     sync.Mutex is not reentrant, and recursive RLock deadlocks whenever
//     a writer arrives between the two acquisitions, so both modes are
//     reported.
//
// The lock abstraction merges instances of the same type, so sibling or
// hand-over-hand locking of two values of one type would be reported as a
// re-acquire; the repo has no such pattern, and the merge is what makes a
// module-global graph possible at all (an instance has no cross-package
// name). Every other approximation biases toward silence: calls through
// function values are opaque, spawned closures contribute edges but not
// caller-ward acquisition facts.
package lockorder

import (
	"sort"
	"strings"

	"namecoherence/internal/analysis"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "flags lock-order cycles across the module and re-acquisition of a held mutex through a call chain",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	reportReacquire(pass)
	reportCycles(pass)
	return nil, nil
}

// reportReacquire flags acquisitions (direct, or reachable through a
// statically resolved call) of a lock identity that is already held.
func reportReacquire(pass *analysis.Pass) {
	for _, ff := range pass.Facts.Own {
		for _, e := range ff.Reacquires {
			if e.Callee == nil {
				pass.Reportf(e.Pos, "re-acquires %s, which is already held: %s",
					e.Acq, mechanism(e.HeldWrite, e.AcqWrite))
				continue
			}
			pass.Reportf(e.Pos, "call to %s may re-acquire %s, which is already held (%s): %s",
				e.Callee.Name(), e.Acq, pass.Facts.All[analysis.FuncKey(e.Callee)].AcquiresLocks[e.Acq].Via,
				mechanism(e.HeldWrite, e.AcqWrite))
		}
	}
}

// mechanism phrases the deadlock mechanism for the held/acquired modes.
func mechanism(heldWrite, acqWrite bool) string {
	if !heldWrite && !acqWrite {
		return "a recursive RLock deadlocks when a writer arrives between the two acquisitions"
	}
	return "the mutex is not reentrant and the goroutine deadlocks against itself"
}

// reportCycles builds the module-global acquisition graph from the merged
// summaries and reports each own-package edge that closes a cycle, once
// per distinct cycle.
func reportCycles(pass *analysis.Pass) {
	// Adjacency over every known edge, own and imported. The via strings
	// ride along for the diagnostic's reverse-path rendering.
	adj := make(map[string][]analysis.LockEdge)
	for _, k := range analysis.SortedKeys(pass.Facts.All) {
		for _, e := range pass.Facts.All[k].LockEdges {
			adj[e.Held] = append(adj[e.Held], e)
		}
	}

	seen := make(map[string]bool)
	for _, ff := range pass.Facts.Own {
		for _, e := range ff.Summary.LockEdges {
			path, ok := reverse(adj, e.Acq, e.Held)
			if !ok {
				continue
			}
			key := cycleKey(e, path)
			if seen[key] {
				continue
			}
			seen[key] = true
			var vias []string
			for _, back := range path {
				vias = append(vias, back.Via)
			}
			pass.Reportf(e.Pos, "lock order cycle: %s is acquired while %s is held here, but the reverse order exists: %s",
				e.Acq, e.Held, strings.Join(vias, "; then "))
		}
	}
}

// reverse finds a path from → to in the acquisition graph (BFS, so the
// reported reverse chain is a shortest one) and returns its edges.
func reverse(adj map[string][]analysis.LockEdge, from, to string) ([]analysis.LockEdge, bool) {
	type hop struct {
		node string
		via  analysis.LockEdge
		prev int
	}
	visited := map[string]bool{from: true}
	queue := []hop{{node: from, prev: -1}}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		for _, e := range adj[cur.node] {
			if e.Acq == to {
				path := []analysis.LockEdge{e}
				for j := i; queue[j].prev >= 0; j = queue[j].prev {
					path = append([]analysis.LockEdge{queue[j].via}, path...)
				}
				return path, true
			}
			if visited[e.Acq] {
				continue
			}
			visited[e.Acq] = true
			queue = append(queue, hop{node: e.Acq, via: e, prev: i})
		}
	}
	return nil, false
}

// cycleKey canonicalizes a cycle by its sorted node set, so a two-edge
// cycle contributed twice by one package reports once.
func cycleKey(e analysis.LockEdge, path []analysis.LockEdge) string {
	nodes := map[string]bool{e.Held: true, e.Acq: true}
	for _, back := range path {
		nodes[back.Held] = true
		nodes[back.Acq] = true
	}
	var ids []string
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return strings.Join(ids, "→")
}
