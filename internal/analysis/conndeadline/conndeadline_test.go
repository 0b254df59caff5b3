package conndeadline_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/conndeadline"
)

func TestConnDeadline(t *testing.T) {
	analysistest.Run(t, conndeadline.Analyzer, "cluster")
}

// TestConnDeadlineFlow covers the v2 call-graph rules: exoneration of
// guarded helpers, call-site reports against UnguardedIO callees (local
// and cross-package, via facts), value-reference and export escape
// hatches, and the idle-loop read exemption.
func TestConnDeadlineFlow(t *testing.T) {
	analysistest.Run(t, conndeadline.Analyzer, "flow/cluster")
}

// TestConnDeadlineRecall pins recall across engine changes: the shapes of
// the deadline bugs the analyzer has caught in this repo still fire, and
// the forms they were fixed to stay silent.
func TestConnDeadlineRecall(t *testing.T) {
	analysistest.Run(t, conndeadline.Analyzer, "recall")
}
