// Package analysistest runs an analyzer over a testdata package and checks
// its diagnostics against // want `regexp` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (stdlib-only re-creation; the
// image has no module proxy). Testdata packages live under
// <analyzer>/testdata/src/<pkg> inside the module, so the go toolchain can
// compile their dependencies and hand us real export data — the analyzers
// see genuine net.Conn and sync.Mutex types, not mocks.
//
// Fixtures may nest helper packages under testdata/src/<pkg>/…: the whole
// tree is loaded in dependency order with interprocedural facts flowing
// between the packages, so cross-package analyzer behavior is testable.
// Want comments are honored in every package of the tree.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"namecoherence/internal/analysis"
)

// expectation is one // want comment: a diagnostic regexp pinned to a line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want `([^`]*)`")

// Run loads testdata/src/<pkg> (and any helper packages nested beneath it)
// relative to the test's working directory, runs the analyzer over each
// package in dependency order, and reports mismatches between its
// diagnostics and the tree's // want comments. Every want must be matched
// by a diagnostic on its line, and every diagnostic must match a want; a
// mismatch lists, in file and line order, each unexpected diagnostic and
// each want nothing matched.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", pkg))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("load %s: no packages", dir)
	}

	var wants []*expectation
	for _, p := range pkgs {
		wants = append(wants, collectWants(t, p)...)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	type mismatch struct {
		file string
		line int
		text string
	}
	var mismatches []mismatch
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.file == f.Posn.Filename && w.line == f.Posn.Line && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			mismatches = append(mismatches, mismatch{f.Posn.Filename, f.Posn.Line, "unexpected: " + f.Message})
		}
	}
	for _, w := range wants {
		if !w.matched {
			mismatches = append(mismatches, mismatch{w.file, w.line, fmt.Sprintf("no diagnostic matching /%s/", w.re)})
		}
	}
	if len(mismatches) == 0 {
		return
	}
	sort.Slice(mismatches, func(i, j int) bool {
		mi, mj := mismatches[i], mismatches[j]
		if mi.file != mj.file {
			return mi.file < mj.file
		}
		if mi.line != mj.line {
			return mi.line < mj.line
		}
		return mi.text < mj.text
	})
	var b strings.Builder
	for _, m := range mismatches {
		fmt.Fprintf(&b, "%s:%d: %s\n", filepath.Base(m.file), m.line, m.text)
	}
	t.Errorf("%s: diagnostics differ from // want comments:\n%s", a.Name, b.String())
}

// collectWants parses every // want comment in the package.
func collectWants(t *testing.T, p *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "// want") {
						t.Fatalf("%s: malformed want comment: %s",
							p.Fset.Position(c.Pos()), c.Text)
					}
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want regexp: %v", p.Fset.Position(c.Pos()), err)
				}
				posn := p.Fset.Position(c.Pos())
				wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, re: re})
			}
		}
	}
	return wants
}
