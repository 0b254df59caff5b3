package casimmut_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/casimmut"
)

func TestCasImmut(t *testing.T) {
	analysistest.Run(t, casimmut.Analyzer, "cas")
}

// TestCasimmutRecall pins recall across engine changes: the shapes the
// analyzer guards still fire, and the forms beside them stay silent.
func TestCasimmutRecall(t *testing.T) {
	analysistest.Run(t, casimmut.Analyzer, "recall/cas")
}
