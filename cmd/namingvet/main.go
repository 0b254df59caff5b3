// Command namingvet is the repo's invariant checker: a multichecker over
// the internal/analysis suite, runnable standalone
//
//	go run ./cmd/namingvet ./...
//
// or as a vet tool, which is how CI runs it on every PR:
//
//	go build -o bin/namingvet ./cmd/namingvet
//	go vet -vettool=$PWD/bin/namingvet ./...
//
// Each analyzer guards one invariant the cluster's correctness rests on;
// see DESIGN.md §"Static analysis & invariants". The suite is
// interprocedural: per-function summaries flow between packages as vet
// facts, so a deadline set in internal/cluster satisfies I/O performed in
// internal/nameserver, and a name that never passed a canonicalizer is
// caught no matter how many calls separate it from the wire.
package main

import (
	"namecoherence/internal/analysis"
	"namecoherence/internal/analysis/allocfree"
	"namecoherence/internal/analysis/bindingsleak"
	"namecoherence/internal/analysis/casimmut"
	"namecoherence/internal/analysis/conndeadline"
	"namecoherence/internal/analysis/detrand"
	"namecoherence/internal/analysis/errwrap"
	"namecoherence/internal/analysis/goroleak"
	"namecoherence/internal/analysis/lockblock"
	"namecoherence/internal/analysis/lockexit"
	"namecoherence/internal/analysis/lockorder"
	"namecoherence/internal/analysis/mutbump"
	"namecoherence/internal/analysis/registrycheck"
	"namecoherence/internal/analysis/wirecanon"
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
	casimmut.Analyzer,
	wirecanon.Analyzer,
	goroleak.Analyzer,
	registrycheck.Analyzer,
	mutbump.Analyzer,
	allocfree.Analyzer,
}

func main() {
	analysis.Main("namingvet", suite)
}
