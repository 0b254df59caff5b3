package cluster

import (
	"testing"

	"namecoherence/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine behind — a
// replica server, a replication applier, a client's subscription reader
// (see leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
