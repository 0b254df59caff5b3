package nameserver

import (
	"testing"

	"namecoherence/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine behind — a
// connection's workers or pusher, a client's standing reader, a follower's
// applier (see leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
