package allocfree_test

import (
	"testing"

	"namecoherence/internal/analysis/allocfree"
	"namecoherence/internal/analysis/analysistest"
)

func TestAllocfreeViolations(t *testing.T) {
	analysistest.Run(t, allocfree.Analyzer, "hotpath")
}

func TestAllocfreeClean(t *testing.T) {
	analysistest.Run(t, allocfree.Analyzer, "steady")
}

// TestAllocfreeRecall pins recall across engine changes: the shape of the
// allocation the analyzer caught on an annotated path in this repo still
// fires, and the form it was fixed to stays silent.
func TestAllocfreeRecall(t *testing.T) {
	analysistest.Run(t, allocfree.Analyzer, "recall")
}

// TestSuppressRecall does the same for the unused-suppression audit, which
// runs whenever allocfree does: the stale exemptions it caught still fire,
// and the code without them stays silent.
func TestSuppressRecall(t *testing.T) {
	analysistest.Run(t, allocfree.Analyzer, "suppressrecall")
}
