package detrand_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/detrand"
)

func TestDetRand(t *testing.T) {
	analysistest.Run(t, detrand.Analyzer, "experiments")
}

// TestDetRandSeam pins the clock seam rule: one package-level var whose
// whole value is an uncalled wall-clock func is silent; a second one, a
// var holding a clock reading, a local func value and a rand draw are
// reported.
func TestDetRandSeam(t *testing.T) {
	analysistest.Run(t, detrand.Analyzer, "seam/experiments")
}

// TestDetRandRecall pins recall across engine changes: the shape of the
// wall-clock bug the analyzer caught in this repo still fires, and the
// form it was fixed to stays silent.
func TestDetRandRecall(t *testing.T) {
	analysistest.Run(t, detrand.Analyzer, "recall")
}
