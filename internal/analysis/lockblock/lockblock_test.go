package lockblock_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/lockblock"
)

func TestLockblock(t *testing.T) {
	analysistest.Run(t, lockblock.Analyzer, "a")
}

// TestLockblockWire is lockheld's fixture: conn I/O, Dial* and Sleep under
// a held mutex, direct and through a same-package call.
func TestLockblockWire(t *testing.T) {
	analysistest.Run(t, lockblock.Analyzer, "wire")
}

// TestLockblockDepth pins the transitive closure: taint flows through a
// five-deep call chain and converges on mutual recursion.
func TestLockblockDepth(t *testing.T) {
	analysistest.Run(t, lockblock.Analyzer, "depth")
}

// TestLockblockCrossPackage pins the facts-based rule: imported functions
// with a MayPark fact taint lock-holding call sites in dependent packages.
func TestLockblockCrossPackage(t *testing.T) {
	analysistest.Run(t, lockblock.Analyzer, "xpkg")
}

// TestLockblockRecall pins recall across engine changes: the shapes of the
// seven lock bugs the suite has caught in this repo still fire, and the
// forms they were fixed to stay silent.
func TestLockblockRecall(t *testing.T) {
	analysistest.Run(t, lockblock.Analyzer, "recall")
}
