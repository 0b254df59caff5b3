package bindingsleak_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/bindingsleak"
)

func TestBindingsLeak(t *testing.T) {
	analysistest.Run(t, bindingsleak.Analyzer, "a")
}

// TestBindingsLeakTable holds a struct-typed bindings field (a hash table
// of the context's own) to the same rules as a map.
func TestBindingsLeakTable(t *testing.T) {
	analysistest.Run(t, bindingsleak.Analyzer, "table")
}

// TestBindingsleakRecall pins recall across engine changes: the shapes the
// analyzer guards still fire, and the forms beside them stay silent.
func TestBindingsleakRecall(t *testing.T) {
	analysistest.Run(t, bindingsleak.Analyzer, "recall")
}
