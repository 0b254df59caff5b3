package registrycheck_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/registrycheck"
)

func TestRegistrycheck(t *testing.T) {
	analysistest.Run(t, registrycheck.Analyzer, "nameserver")
}

// TestRegistrycheckBinaryCodec covers the completeness rule: a missing
// append/parse function and a skipped field are errors.
func TestRegistrycheckBinaryCodec(t *testing.T) {
	analysistest.Run(t, registrycheck.Analyzer, "binary/nameserver")
}

// TestRegistrycheckRecall pins recall across engine changes: the shapes the
// analyzer guards still fire, and the forms beside them stay silent.
func TestRegistrycheckRecall(t *testing.T) {
	analysistest.Run(t, registrycheck.Analyzer, "recall/nameserver")
}
