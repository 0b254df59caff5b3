package goroleak_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/goroleak"
)

func TestGoroleak(t *testing.T) {
	analysistest.Run(t, goroleak.Analyzer, "cluster")
}

// TestGoroleakRecall pins recall across engine changes: the shapes of the
// leak the analyzer caught in this repo still fire, and the form it was
// fixed to stays silent.
func TestGoroleakRecall(t *testing.T) {
	analysistest.Run(t, goroleak.Analyzer, "recall")
}
