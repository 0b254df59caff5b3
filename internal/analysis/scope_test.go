package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// TestScopeMatchesWholePathSegments: a Scope name claims the packages that
// have it as a path segment, not every path it is a substring of — "cas"
// used to claim internal/newcastle too.
func TestScopeMatchesWholePathSegments(t *testing.T) {
	ran := make(map[string]bool)
	probe := &Analyzer{
		Name:  "probe",
		Scope: []string{"cas"},
		Run: func(p *Pass) (any, error) {
			ran[p.Pkg.Path()] = true
			return nil, nil
		},
	}
	const in, out = "namecoherence/internal/cas", "namecoherence/internal/newcastle"
	for _, path := range []string{in, out} {
		pkg := &Package{Path: path, Fset: token.NewFileSet(), Types: types.NewPackage(path, "p"), Info: &types.Info{}}
		if _, _, err := RunAnalyzers(pkg, []*Analyzer{probe}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !ran[in] || ran[out] {
		t.Fatalf("a cas-scoped analyzer ran on %v; want %s only", ran, in)
	}
}
