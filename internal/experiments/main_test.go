package experiments

import (
	"testing"

	"namecoherence/internal/leakcheck"
)

// TestMain fails the package if any table leaves a goroutine running or a
// descriptor open — a cluster, a client, a listener, a snapshot store
// (see leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
