package errwrap_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/errwrap"
)

func TestErrWrap(t *testing.T) {
	analysistest.Run(t, errwrap.Analyzer, "a")
}

// TestErrWrapRecall pins recall across engine changes: the shape of the
// cause-severing bug the analyzer caught in this repo still fires, and the
// form it was fixed to stays silent.
func TestErrWrapRecall(t *testing.T) {
	analysistest.Run(t, errwrap.Analyzer, "recall")
}
