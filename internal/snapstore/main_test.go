package snapstore

import (
	"testing"

	"namecoherence/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine behind — a
// served connection of the incremental-snapshot harness (see leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
