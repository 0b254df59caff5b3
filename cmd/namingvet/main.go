// Command namingvet is the repo's invariant checker: a multichecker over
// the internal/analysis suite. It loads the named packages (default
// ./...), analyzes them in dependency order and prints one line per
// finding. `go test ./...` runs the same suite over the whole module
// (TestModuleInvariants, beside the module's shape guards); the binary is
// for ad hoc runs and for scripts/loadmap.sh:
//
//	go build -o bin/namingvet ./cmd/namingvet
//	./bin/namingvet ./...
//
// Exit status: 0 clean, 1 tool failure, 2 findings. Each analyzer guards
// one invariant the cluster's correctness rests on; see DESIGN.md
// §"Static analysis & invariants". The suite is interprocedural:
// per-function summaries flow from each package to its importers, so a
// deadline set in internal/cluster satisfies I/O performed in
// internal/nameserver, and a call that may park is caught under a held
// lock no matter how many calls separate it from the lock. Every analyzer
// is a general Go rule. None models performance (the AllocsPerRun floors
// hold the steady path at zero allocations) or a contract about this
// module's own types, which a test or a guard beside its code holds.
package main

import (
	"namecoherence/internal/analysis"
	"namecoherence/internal/analysis/bindingsleak"
	"namecoherence/internal/analysis/conndeadline"
	"namecoherence/internal/analysis/detrand"
	"namecoherence/internal/analysis/errwrap"
	"namecoherence/internal/analysis/goroleak"
	"namecoherence/internal/analysis/lockblock"
	"namecoherence/internal/analysis/lockexit"
	"namecoherence/internal/analysis/lockorder"
)

// suite is the full analyzer set; shared with the benchmark.
var suite = []*analysis.Analyzer{
	lockorder.Analyzer,
	lockblock.Analyzer,
	lockexit.Analyzer,
	conndeadline.Analyzer,
	errwrap.Analyzer,
	bindingsleak.Analyzer,
	detrand.Analyzer,
	goroleak.Analyzer,
}

func main() {
	analysis.Main("namingvet", suite)
}
