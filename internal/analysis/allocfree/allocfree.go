// Package allocfree enforces the steady-path allocation discipline the
// zero-allocation codec work depends on: a function marked
// //namingvet:allocfree — together with everything it transitively
// reaches — must not allocate on the steady path. The evidence comes from
// the framework's allocation facts (Allocates/EscapesToHeap, computed by
// the escape-analysis pass in internal/analysis and carried to every
// importer in its summaries), so the rule holds across package
// boundaries: a helper three packages away that starts boxing into an
// interface breaks the build of the annotated root, at the root.
//
// Cold branches are carved out with //namingvet:allocfree-exempt: on a
// function's doc comment the whole body is off the steady path (error
// teardown, reconnect); on or above a line it covers just that line
// (a routing bootstrap that copies its table, an error return
// constructing its message). Exemptions are deliberate and
// grep-able: they are part of the discipline, not a suppression of it,
// and the unused-exemption audit reports one that exempts nothing.
//
// Like the rest of the suite, absence of evidence never convicts: calls
// into packages without facts (the standard library beyond the known
// allocator tables, interface method calls, generic instantiations)
// contribute nothing. The analyzer under-reports rather than crying wolf.
package allocfree

import (
	"strings"

	"namecoherence/internal/analysis"
)

// Analyzer is the allocfree analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "enforces //namingvet:allocfree: annotated functions and their transitive callees must not allocate on the steady path",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, ff := range pass.Facts.Own {
		if ff.AllocFreeRoot {
			checkRoot(pass, ff)
		}
	}
	return nil, nil
}

// checkRoot walks the call closure of one annotated root, depth-first in
// lexical call order, reporting every allocation site it can see directly
// (same package) and every cross-package callee whose exported facts say
// it may allocate. Exempt functions and call sites on exempt lines are
// firewalls; each function is visited once per root.
func checkRoot(pass *analysis.Pass, root *analysis.FuncFacts) {
	seen := map[string]bool{analysis.FuncKey(root.Fn): true}
	var visit func(ff *analysis.FuncFacts, chain []string)
	visit = func(ff *analysis.FuncFacts, chain []string) {
		for _, site := range ff.Allocs {
			if ff == root {
				pass.Reportf(site.Pos,
					"%s is marked %s but allocates: %s",
					root.Fn.Name(), analysis.AllocFreeDirective, site.Desc)
			} else {
				pass.Reportf(site.Pos,
					"%s is marked %s but its call chain %s allocates here: %s",
					root.Fn.Name(), analysis.AllocFreeDirective,
					strings.Join(chain, " → "), site.Desc)
			}
		}
		for _, cs := range pass.Facts.Graph.Calls[ff.Fn] {
			if pass.Facts.AllocExemptAt(pass.Fset.Position(cs.Call.Pos())) {
				continue
			}
			key := analysis.FuncKey(cs.Callee)
			if seen[key] {
				continue
			}
			seen[key] = true
			if own := pass.Facts.OwnFacts(cs.Callee); own != nil {
				if own.AllocExempt || !own.Summary.EscapesToHeap {
					continue
				}
				visit(own, append(chain, cs.Callee.Name()))
				continue
			}
			sum := pass.Facts.All[key]
			if !sum.EscapesToHeap {
				continue
			}
			pass.Reportf(cs.Call.Pos(),
				"%s is marked %s but %s reaches %s, which may allocate: %s",
				root.Fn.Name(), analysis.AllocFreeDirective,
				strings.Join(chain, " → "), cs.Callee.FullName(), sum.AllocVia)
		}
	}
	visit(root, []string{root.Fn.Name()})
}
