package mutbump_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/mutbump"
)

func TestMutbump(t *testing.T) {
	analysistest.Run(t, mutbump.Analyzer, "nameserver")
}

// TestMutbumpOutOfScope pins the scope gate: the workload fixture commits
// the same unbumped mutations as the nameserver fixture but lives outside
// the Scope package list, so the analyzer must report nothing (the fixture
// has zero want comments — any diagnostic fails the run).
func TestMutbumpOutOfScope(t *testing.T) {
	analysistest.Run(t, mutbump.Analyzer, "workload")
}

// TestMutbumpRecall pins recall across engine changes: the shape of the
// revision hole the analyzer guards still fires, and the form the write
// path was fixed to stays silent.
func TestMutbumpRecall(t *testing.T) {
	analysistest.Run(t, mutbump.Analyzer, "recall")
}
