package lockorder_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/lockorder"
)

func TestReacquire(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "reacquire")
}

func TestCrossPackageCycle(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "cycle")
}

func TestSamePackageCycle(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "cyclepkg")
}

// TestLockorderRecall pins recall across engine changes: the shapes the
// analyzer guards still fire, and the forms beside them stay silent.
func TestLockorderRecall(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "recall")
}
