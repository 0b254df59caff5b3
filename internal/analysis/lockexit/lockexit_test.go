package lockexit_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/lockexit"
)

func TestLockexit(t *testing.T) {
	analysistest.Run(t, lockexit.Analyzer, "a")
}

// TestLockexitRecall pins recall across engine changes: the shapes the
// analyzer guards still fire, and the forms beside them stay silent.
func TestLockexitRecall(t *testing.T) {
	analysistest.Run(t, lockexit.Analyzer, "recall")
}
