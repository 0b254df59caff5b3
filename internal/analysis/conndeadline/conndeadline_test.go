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
// idle-read exemption for an owner's forwarding Read.
func TestConnDeadlineFlow(t *testing.T) {
	analysistest.Run(t, conndeadline.Analyzer, "flow/cluster")
}

// TestConnDeadlineRecall pins recall across engine changes: the shapes of
// the deadline bugs the analyzer has caught in this repo still fire, and
// the forms they were fixed to stay silent.
func TestConnDeadlineRecall(t *testing.T) {
	analysistest.Run(t, conndeadline.Analyzer, "recall")
}

// TestConnDeadlineHandoff pins the handoff rule: a conn passed as an
// io.Reader or io.Writer to a function with no summary (bufio, io) is
// reported where it is handed over, since the I/O it does there is out of
// every deadline rule's sight. Filling through an owner's forwarding Read,
// draining through a deadline-arming Write and handing over an *os.File
// stay silent.
func TestConnDeadlineHandoff(t *testing.T) {
	analysistest.Run(t, conndeadline.Analyzer, "handoff/cluster")
}
