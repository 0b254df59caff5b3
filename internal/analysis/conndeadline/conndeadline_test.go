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
