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
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
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

	// Report delivers one diagnostic. Diagnostics on _test.go files and
	// diagnostics suppressed by a namingvet:ignore directive are dropped
	// by the driver.
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

// SuppressName tags the findings of the unused-suppression audit: a
// directive that suppresses no diagnostic is itself reported, so stale
// exemptions get burned down instead of rotting.
const SuppressName = "suppress"

// ignoreDirective is one parsed //namingvet:ignore or file-ignore comment,
// shared by every line it covers so suppressions can be traced back to it.
type ignoreDirective struct {
	names    []string
	fileWide bool
	posn     token.Position
	used     map[string]bool // analyzer name -> suppressed something
}

// ignoreIndex records which analyzers are suppressed where, from
//
//	//namingvet:ignore name1,name2 -- reason
//
// directives (suppressing the directive's line and the following line, so
// the comment may sit above or beside the flagged expression) and
//
//	//namingvet:file-ignore name -- reason
//
// directives (suppressing a whole file).
type ignoreIndex struct {
	files      map[string][]*ignoreDirective         // filename -> file-wide directives
	lines      map[string]map[int][]*ignoreDirective // filename -> line -> directives
	directives []*ignoreDirective
}

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{
		files: make(map[string][]*ignoreDirective),
		lines: make(map[string]map[int][]*ignoreDirective),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, fileWide := strings.CutPrefix(c.Text, "//namingvet:file-ignore ")
				if !fileWide {
					var ok bool
					text, ok = strings.CutPrefix(c.Text, "//namingvet:ignore ")
					if !ok {
						continue
					}
				}
				rawNames, _, _ := strings.Cut(text, "--")
				d := &ignoreDirective{
					fileWide: fileWide,
					posn:     fset.Position(c.Pos()),
					used:     make(map[string]bool),
				}
				for _, name := range strings.Split(rawNames, ",") {
					if name = strings.TrimSpace(name); name != "" {
						d.names = append(d.names, name)
					}
				}
				if len(d.names) == 0 {
					continue
				}
				idx.directives = append(idx.directives, d)
				if fileWide {
					idx.files[d.posn.Filename] = append(idx.files[d.posn.Filename], d)
					continue
				}
				byLine := idx.lines[d.posn.Filename]
				if byLine == nil {
					byLine = make(map[int][]*ignoreDirective)
					idx.lines[d.posn.Filename] = byLine
				}
				for _, line := range []int{d.posn.Line, d.posn.Line + 1} {
					byLine[line] = append(byLine[line], d)
				}
			}
		}
	}
	return idx
}

func (d *ignoreDirective) matches(analyzer string) bool {
	for _, name := range d.names {
		if name == analyzer {
			return true
		}
	}
	return false
}

// ignored reports whether a diagnostic at posn is suppressed, marking every
// directive that suppresses it as used for the audit.
func (idx *ignoreIndex) ignored(analyzer string, posn token.Position) bool {
	hit := false
	for _, d := range idx.files[posn.Filename] {
		if d.matches(analyzer) {
			d.used[analyzer] = true
			hit = true
		}
	}
	for _, d := range idx.lines[posn.Filename][posn.Line] {
		if d.matches(analyzer) {
			d.used[analyzer] = true
			hit = true
		}
	}
	return hit
}

// audit reports, after every analyzer has run, each directive name that
// matched no diagnostic. Names outside the run set are skipped — a partial
// run (a single-analyzer test) has no evidence either way — as are
// directives in _test.go files, which never see diagnostics at all.
func (idx *ignoreIndex) audit(ran map[string]bool) []Finding {
	var findings []Finding
	for _, d := range idx.directives {
		if strings.HasSuffix(d.posn.Filename, "_test.go") {
			continue
		}
		kind := "ignore"
		if d.fileWide {
			kind = "file-ignore"
		}
		for _, name := range d.names {
			if !ran[name] || d.used[name] {
				continue
			}
			findings = append(findings, Finding{
				Analyzer: SuppressName,
				Posn:     d.posn,
				Message:  fmt.Sprintf("unused suppression: this %s directive matches no %s diagnostic", kind, name),
			})
		}
	}
	return findings
}

// RunAnalyzers runs every analyzer over one type-checked package and
// returns the surviving findings plus the package's merged summaries
// (imported ∪ own) for feeding into dependent packages. Findings on
// _test.go files are dropped: tests legitimately compare sentinel
// identity, hold locks over pipe I/O, and read wall clocks, and the
// invariants guard production paths.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, imported Summaries) ([]Finding, Summaries, error) {
	idx := buildIgnoreIndex(pkg.Fset, pkg.Files)
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
			if idx.ignored(a.Name, posn) {
				return
			}
			findings = append(findings, Finding{Analyzer: a.Name, Posn: posn, Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	findings = append(findings, idx.audit(ran)...)
	if ran["allocfree"] {
		findings = append(findings, auditAllocExempt(pkg, facts)...)
	}
	return findings, facts.All, nil
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

// IsNamedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// HasMethods reports whether t's method set includes every named method
// (by name only — the conn-ish duck test parkingCall and conndeadline use).
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
