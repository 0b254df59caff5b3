package detrand_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/detrand"
)

func TestDetRand(t *testing.T) {
	analysistest.Run(t, detrand.Analyzer, "experiments")
}

// TestDetRandRecall pins recall across engine changes: the shape of the
// wall-clock bug the analyzer caught in this repo still fires, and the
// form it was fixed to stays silent.
func TestDetRandRecall(t *testing.T) {
	analysistest.Run(t, detrand.Analyzer, "recall")
}
