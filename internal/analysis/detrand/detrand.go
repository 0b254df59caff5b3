// Package detrand keeps fault injection and experiment ledgers
// reproducible. internal/faultnet schedules deterministic faults and
// internal/experiments writes ledgers that E-numbered runs compare across
// machines; a stray time.Now or math/rand call silently turns a
// reproducible experiment into a flaky one. Inside those packages, wall
// clocks and unseeded randomness must flow through one allowlisted seam (a
// clock.go / workload seed source carrying a namingvet:file-ignore
// directive), never appear inline.
package detrand

import (
	"go/ast"
	"go/types"

	"namecoherence/internal/analysis"
)

// Analyzer is the detrand analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbids inline time.Now/time.Since and math/rand in deterministic packages (faultnet, experiments)",
	Run:  run,
	// Scope limits the analyzer to packages whose import path has one of
	// these segments.
	Scope: []string{"faultnet", "experiments"},
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if fn, ok := obj.(*types.Func); ok && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until") {
					pass.Reportf(sel.Pos(),
						"inline time.%s breaks experiment reproducibility; route wall time through the allowlisted clock seam",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(sel.Pos(),
					"inline %s.%s breaks determinism; draw randomness from the seeded workload generator",
					obj.Pkg().Name(), obj.Name())
			}
			return true
		})
	}
	return nil, nil
}
