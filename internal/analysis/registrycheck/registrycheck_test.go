package registrycheck_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/registrycheck"
)

func TestRegistrycheck(t *testing.T) {
	analysistest.Run(t, registrycheck.Analyzer, "nameserver")
}

// TestRegistrycheckRecall pins recall across engine changes: the shapes the
// analyzer guards still fire, and the forms beside them stay silent.
func TestRegistrycheckRecall(t *testing.T) {
	analysistest.Run(t, registrycheck.Analyzer, "recall/nameserver")
}
