// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis API surface this repository needs. The
// container image carries no module proxy, so the framework is built on the
// standard library alone: go/ast and go/types for inspection, go list
// -export for loading, and the stdlib gc importer for dependency type
// information. Analyzers written against it enforce the repo's coherence,
// locking, and deadline invariants mechanically (see cmd/namingvet).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc states the invariant the analyzer guards.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) (any, error)
	// Scope, when non-empty, limits the analyzer to packages whose import
	// path has one of these names as a whole segment: "cas" claims
	// …/internal/cas and not …/internal/newcastle.
	Scope []string
}

// Pass is the interface between one analyzer and one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts holds this package's interprocedural summaries (merged with
	// the summaries imported from its dependencies). Computed once per
	// package by the driver and shared by every analyzer.
	Facts *PackageFacts

	// Report delivers one diagnostic. Diagnostics on _test.go files are
	// dropped by the driver; nothing else is: an exemption is a rule of
	// the analyzer that needs it, never a comment at the site.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a diagnostic resolved to a position, tagged with its analyzer.
type Finding struct {
	Analyzer string
	Posn     token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		f.Posn.Filename, f.Posn.Line, f.Posn.Column, f.Analyzer, f.Message)
}

// RunAnalyzers runs every analyzer over one type-checked package and
// returns the surviving findings plus the package's merged summaries
// (imported ∪ own) for feeding into dependent packages. Findings on
// _test.go files are dropped: tests legitimately compare sentinel
// identity, hold locks over pipe I/O, and read wall clocks, and the
// invariants guard production paths.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, imported Summaries) ([]Finding, Summaries, error) {
	facts := ComputeFacts(pkg, imported)
	var findings []Finding
	for _, a := range analyzers {
		if !inScope(pkg.Path, a.Scope) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
		}
		pass.Report = func(d Diagnostic) {
			posn := pkg.Fset.Position(d.Pos)
			if strings.HasSuffix(posn.Filename, "_test.go") {
				return
			}
			findings = append(findings, Finding{Analyzer: a.Name, Posn: posn, Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	return findings, facts.All, nil
}

// Run analyzes packages in the dependency order Load returns them in,
// threading each package's merged summaries into the next, so every
// package sees the facts of all its module dependencies. FactsOnly
// packages contribute facts and no findings. It is the one package loop:
// standalone mode, analysistest and the benchmark all drive it.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	acc := Summaries{}
	var all []Finding
	for _, pkg := range pkgs {
		if pkg.FactsOnly {
			acc = ComputeFacts(pkg, acc).All
			continue
		}
		findings, merged, err := RunAnalyzers(pkg, analyzers, acc)
		if err != nil {
			return nil, err
		}
		acc = merged
		all = append(all, findings...)
	}
	return all, nil
}

// inScope reports whether an analyzer with the given Scope runs on the
// package at path.
func inScope(path string, scope []string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, seg := range strings.Split(path, "/") {
		for _, s := range scope {
			if seg == s {
				return true
			}
		}
	}
	return false
}

// SortedKeys returns m's keys in sorted order, so whatever walks a map —
// fact propagation, edge emission — does it deterministically
// (detrand would want nothing less).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WalkStack walks one subtree, calling fn with each node and the stack of
// its ancestors (outermost first, not including the node itself).
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// ErrorType reports whether t implements the error interface.
func ErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface)
}

// CalleeFunc resolves the called function or method of call, or nil.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// BuiltinName returns the name of the builtin call invokes (len, make,
// append, close, …), or "" when it invokes anything else.
func BuiltinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

// NamedOf returns t, after one pointer indirection, as a named type, or
// nil when it is not one.
func NamedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// RecvNamed returns the named type of fn's receiver (after pointer
// indirection), or nil when fn is no method of a named type.
func RecvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	return NamedOf(recv.Type())
}

// IsNamedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	named := NamedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// HasMethods reports whether t's method set includes every named method
// (by name only — the test ConnShaped is made of).
func HasMethods(t types.Type, names ...string) bool {
	ms := types.NewMethodSet(t)
	if _, ok := t.Underlying().(*types.Interface); !ok {
		if _, isPtr := t.(*types.Pointer); !isPtr {
			ms = types.NewMethodSet(types.NewPointer(t))
		}
	}
	for _, name := range names {
		found := false
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
