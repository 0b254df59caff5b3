package wirecanon_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/wirecanon"
)

func TestWirecanon(t *testing.T) {
	analysistest.Run(t, wirecanon.Analyzer, "nameserver")
}

// TestWirecanonRecall pins recall across engine changes: the shape of the
// unrouted write path the analyzer caught in this repo still fires, and
// the form it was fixed to stays silent.
func TestWirecanonRecall(t *testing.T) {
	analysistest.Run(t, wirecanon.Analyzer, "recall")
}
