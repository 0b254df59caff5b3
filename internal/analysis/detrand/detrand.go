// Package detrand keeps fault injection and experiment ledgers
// reproducible. internal/faultnet schedules deterministic faults and
// internal/experiments writes ledgers that E-numbered runs compare across
// machines; a stray time.Now or math/rand call silently turns a
// reproducible experiment into a flaky one. Inside those packages, wall
// clocks and unseeded randomness are never read inline. A package may
// have one clock seam: a package-level var whose whole value is time.Now,
// time.Since or time.Until, uncalled (`var now = time.Now`), which the
// rest of the package reads the clock through and a test can stub. A
// second seam is reported, and so is every other wall-clock or math/rand
// use.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"namecoherence/internal/analysis"
)

// Analyzer is the detrand analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbids inline time.Now/time.Since and math/rand in deterministic packages (faultnet, experiments), outside one package-level clock seam",
	Run:  run,
	// Scope limits the analyzer to packages whose import path has one of
	// these segments.
	Scope: []string{"faultnet", "experiments"},
}

func run(pass *analysis.Pass) (any, error) {
	// Every package-level var value that is a bare selector: the clock
	// seam's shape, once the selector resolves to a wall-clock func.
	seamShaped := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					for _, v := range spec.(*ast.ValueSpec).Values {
						if sel, ok := ast.Unparen(v).(*ast.SelectorExpr); ok {
							seamShaped[sel] = true
						}
					}
				}
			}
		}
	}
	seamed := false
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
				fn, ok := obj.(*types.Func)
				if !ok || (fn.Name() != "Now" && fn.Name() != "Since" && fn.Name() != "Until") {
					return true
				}
				switch {
				case !seamShaped[sel]:
					pass.Reportf(sel.Pos(),
						"inline time.%s breaks experiment reproducibility; route wall time through the package's clock seam",
						fn.Name())
				case !seamed:
					seamed = true
				default:
					pass.Reportf(sel.Pos(),
						"second clock seam time.%s; a package reads the wall clock through one seam",
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
