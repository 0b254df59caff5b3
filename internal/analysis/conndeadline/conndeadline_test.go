package conndeadline_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/conndeadline"
)

func TestConnDeadline(t *testing.T) {
	analysistest.Run(t, conndeadline.Analyzer, "cluster")
}

// TestConnDeadlineFlow covers the v2 call-graph rules: helpers reported
// at their own I/O whoever calls them, call-site reports against
// UnguardedIO callees (local and cross-package, via facts), and the
// idle-loop read exemption.
func TestConnDeadlineFlow(t *testing.T) {
	analysistest.Run(t, conndeadline.Analyzer, "flow/cluster")
}

// TestConnDeadlineRecall pins recall across engine changes: the shapes of
// the deadline bugs the analyzer has caught in this repo still fire, and
// the forms they were fixed to stay silent.
func TestConnDeadlineRecall(t *testing.T) {
	analysistest.Run(t, conndeadline.Analyzer, "recall")
}

// TestConnDeadlineBufioBlindSpot documents the hole DESIGN §6 records: a
// deadline-free read through a bufio.Reader over a conn is reported by
// nothing. When conndeadline learns to follow the wrap this test fails at
// blindspot/cluster's readReply; that line then takes its want.
func TestConnDeadlineBufioBlindSpot(t *testing.T) {
	analysistest.Run(t, conndeadline.Analyzer, "blindspot/cluster")
}
