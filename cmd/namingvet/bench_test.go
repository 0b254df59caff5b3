package main

import (
	"testing"

	"namecoherence/internal/analysis"
)

// BenchmarkNamingvet times a full-module standalone run — package loading,
// fact computation, and all analyzers in the suite — and doubles as a
// regression check that the module stays vet-clean. CI runs it with
// -benchtime=1x and logs the wall time, so a perf regression in the facts
// layer shows up as a number, not a feeling.
func BenchmarkNamingvet(b *testing.B) {
	root := repoRoot(b)
	for i := 0; i < b.N; i++ {
		pkgs, err := analysis.Load(root, []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		findings, err := analysis.Run(pkgs, suite)
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("module is not vet-clean: %d findings, first: %s: %s",
				len(findings), findings[0].Posn, findings[0].Message)
		}
	}
}
