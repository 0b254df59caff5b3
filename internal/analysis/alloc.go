// Allocation/escape evidence for the allocfree analyzer. Per function,
// allocFlow collects the steady-path allocation sites its body contains —
// composite literals and new/make whose result escapes, interface boxing,
// string↔[]byte conversions, growing appends, map/chan/closure creation,
// go statements, and calls into known allocator packages (fmt, reflect,
// json) — then runs a monotone fixpoint so Allocates/EscapesToHeap
// facts flow through calls and across packages, exactly like the deadline
// and canon facts.
//
// The escape test is a local, lexical approximation of the compiler's
// escape analysis with the framework's usual bias: absence of evidence can
// only cause false negatives, never false positives. A value is considered
// escaping when it is returned, stored to a field/element/pointee, sent on
// a channel, captured by an escaping closure, or passed to an interface
// parameter. Passing a pointer or slice to a concrete parameter is assumed
// non-leaking (the common case; the compiler assumes the opposite, but an
// enforcement tool that flagged every helper call would only breed ignore
// directives).
//
// //namingvet:allocfree-exempt on a function's doc comment drops the whole
// body from the evidence (cold teardown, error construction); on or above
// a statement line it drops just that line's sites, and call edges on that
// line do not propagate allocation facts either.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// allocPkgs taints every call into these packages: their entry points
// allocate by design (formatting, reflection, codec buffers).
var allocPkgs = map[string]bool{
	"fmt":           true,
	"reflect":       true,
	"encoding/json": true,
}

// allocFuncs names individual stdlib allocators outside allocPkgs. Append
// variants (strconv.AppendInt, …) are deliberately absent: they write into
// a caller-provided buffer and amortize like self-append.
var allocFuncs = map[string]bool{
	"errors.New":          true,
	"errors.Join":         true,
	"strings.Join":        true,
	"strings.Split":       true,
	"strings.SplitN":      true,
	"strings.Fields":      true,
	"strings.Repeat":      true,
	"strings.Replace":     true,
	"strings.ReplaceAll":  true,
	"strings.ToUpper":     true,
	"strings.ToLower":     true,
	"strings.Clone":       true,
	"strconv.Itoa":        true,
	"strconv.FormatInt":   true,
	"strconv.FormatUint":  true,
	"strconv.FormatFloat": true,
	"strconv.Quote":       true,
	"sort.Slice":          true,
	"sort.SliceStable":    true,
	"sort.Strings":        true,
	"sort.Ints":           true,
	"bytes.Join":          true,
	"bytes.Split":         true,
	"bytes.Fields":        true,
	"bytes.Repeat":        true,
	"time.NewTimer":       true,
	"time.NewTicker":      true,
	"time.After":          true,
	"time.Tick":           true,
}

// allocFlow computes each function's allocation sites and runs the
// Allocates/EscapesToHeap fixpoint. Runs after the main summary fixpoint,
// so imported facts are already merged into pf.All.
func allocFlow(pkg *Package, pf *PackageFacts, obs map[*types.Func]*atoms) {
	pf.allocExempt = allocExemptLines(pkg)
	exemptAt := func(pos token.Pos) bool {
		return pf.AllocExemptAt(pkg.Fset.Position(pos))
	}
	for _, ff := range pf.Own {
		if ff.AllocExempt {
			continue
		}
		ff.Allocs = allocSites(pkg, ff.Decl, exemptAt)
		if len(ff.Allocs) > 0 {
			ff.Summary.Allocates = true
			ff.Summary.EscapesToHeap = true
			ff.Summary.AllocVia = siteLabel(pkg, ff.Allocs[0])
		}
	}

	// EscapesToHeap propagates caller-ward: calling a function that may
	// allocate may allocate. Exempt callees and call sites on exempt
	// lines are firewalls. AllocVia is set at the first flip only, so the
	// sample chain stays finite and deterministic (lexical call order).
	for changed := true; changed; {
		changed = false
		for _, ff := range pf.Own {
			if ff.AllocExempt || ff.Summary.EscapesToHeap {
				continue
			}
			for _, cs := range obs[ff.Fn].calls {
				if exemptAt(cs.Pos) {
					continue
				}
				if own := pf.byFn[cs.Callee]; own != nil && own.AllocExempt {
					continue
				}
				cal := summaryOf(pf, cs.Callee)
				if !cal.EscapesToHeap {
					continue
				}
				ff.Summary.EscapesToHeap = true
				ff.Summary.AllocVia = "calls " + cs.Callee.FullName() + ": " + cal.AllocVia
				changed = true
				break
			}
		}
	}
}

// auditAllocExempt reports allocfree-exempt directives that exempt nothing:
// with the exemption switched off, the covered lines contain no allocation
// site and no call that would propagate EscapesToHeap, so the directive is
// stale. A function-level directive is unused when the whole body is
// evidence-free. Runs only when the allocfree analyzer is in the run set
// (RunAnalyzers gates the call).
func auditAllocExempt(pkg *Package, pf *PackageFacts) []Finding {
	noExempt := func(token.Pos) bool { return false }
	type fileLine struct {
		file string
		line int
	}
	// Every line an un-exempted sweep would find evidence on, and, per
	// function, whether any exists at all.
	evidence := make(map[fileLine]bool)
	hasEvidence := make(map[*FuncFacts]bool)
	for _, ff := range pf.Own {
		for _, s := range allocSites(pkg, ff.Decl, noExempt) {
			posn := pkg.Fset.Position(s.Pos)
			evidence[fileLine{posn.Filename, posn.Line}] = true
			hasEvidence[ff] = true
		}
		for _, cs := range pf.Graph.Calls[ff.Fn] {
			if own := pf.byFn[cs.Callee]; own != nil && own.AllocExempt {
				continue
			}
			if !summaryOf(pf, cs.Callee).EscapesToHeap {
				continue
			}
			posn := pkg.Fset.Position(cs.Pos)
			evidence[fileLine{posn.Filename, posn.Line}] = true
			hasEvidence[ff] = true
		}
	}

	var findings []Finding
	// Function-level directives live in doc comments of exempt declarations.
	docDirective := make(map[*ast.Comment]bool)
	for _, ff := range pf.Own {
		if !ff.AllocExempt || ff.Decl.Doc == nil {
			continue
		}
		for _, c := range ff.Decl.Doc.List {
			if !directiveMatches(c.Text, AllocFreeExemptDirective) {
				continue
			}
			docDirective[c] = true
			posn := pkg.Fset.Position(c.Pos())
			if hasEvidence[ff] || strings.HasSuffix(posn.Filename, "_test.go") {
				continue
			}
			findings = append(findings, Finding{
				Analyzer: SuppressName,
				Posn:     posn,
				Message: fmt.Sprintf("unused suppression: %s has no allocation evidence for this allocfree-exempt directive to exempt",
					funcLabel(ff.Fn)),
			})
		}
	}
	// Everything else is a line directive covering its own and the next line.
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !directiveMatches(c.Text, AllocFreeExemptDirective) || docDirective[c] {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				if strings.HasSuffix(posn.Filename, "_test.go") {
					continue
				}
				if evidence[fileLine{posn.Filename, posn.Line}] || evidence[fileLine{posn.Filename, posn.Line + 1}] {
					continue
				}
				findings = append(findings, Finding{
					Analyzer: SuppressName,
					Posn:     posn,
					Message:  "unused suppression: no allocation evidence on the lines this allocfree-exempt directive covers",
				})
			}
		}
	}
	return findings
}

// allocExemptLines indexes //namingvet:allocfree-exempt line directives:
// the directive's own line and the following one, so the comment may sit
// above or beside the exempted expression.
func allocExemptLines(pkg *Package) map[string]map[int]bool {
	idx := make(map[string]map[int]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !directiveMatches(c.Text, AllocFreeExemptDirective) {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				if idx[posn.Filename] == nil {
					idx[posn.Filename] = make(map[int]bool)
				}
				idx[posn.Filename][posn.Line] = true
				idx[posn.Filename][posn.Line+1] = true
			}
		}
	}
	return idx
}

// siteLabel renders one allocation site for a summary's AllocVia chain.
func siteLabel(pkg *Package, s AllocSite) string {
	posn := pkg.Fset.Position(s.Pos)
	return fmt.Sprintf("%s (%s:%d)", s.Desc, filepath.Base(posn.Filename), posn.Line)
}

// allocScan carries the per-declaration state of one allocation sweep.
type allocScan struct {
	pkg    *Package
	decl   *ast.FuncDecl
	exempt func(token.Pos) bool
	// escUse marks objects with at least one escaping use in this body
	// (returned, stored to a heap-reachable place, boxed, captured, sent).
	escUse map[types.Object]bool
	sites  []AllocSite
}

// allocSites collects the non-exempt allocation sites of one declaration,
// in lexical order.
func allocSites(pkg *Package, decl *ast.FuncDecl, exempt func(token.Pos) bool) []AllocSite {
	sc := &allocScan{pkg: pkg, decl: decl, exempt: exempt}
	sc.escUse = escapingUses(pkg, decl)
	WalkStack(decl.Body, func(n ast.Node, stack []ast.Node) {
		sc.visit(n, stack)
	})
	return sc.sites
}

// add records one site unless its line is exempt.
func (sc *allocScan) add(pos token.Pos, desc string) {
	if sc.exempt(pos) {
		return
	}
	sc.sites = append(sc.sites, AllocSite{Pos: pos, Desc: desc})
}

// visit classifies one node as allocation evidence (or not).
func (sc *allocScan) visit(n ast.Node, stack []ast.Node) {
	info := sc.pkg.Info
	switch node := n.(type) {
	case *ast.GoStmt:
		sc.add(node.Pos(), "go statement allocates a goroutine")

	case *ast.CompositeLit:
		t := typeOf(info, node)
		switch t.Underlying().(type) {
		case *types.Map:
			sc.add(node.Pos(), "map literal allocates")
		case *types.Slice:
			if sc.escapes(node, stack) {
				sc.add(node.Pos(), "slice literal escapes to heap")
			}
		}
		// Struct and array literals allocate only through & (see
		// UnaryExpr) or boxing (see conversions and call arguments).

	case *ast.UnaryExpr:
		if node.Op != token.AND {
			return
		}
		switch operand := ast.Unparen(node.X).(type) {
		case *ast.CompositeLit:
			if sc.escapes(node, stack) {
				sc.add(node.Pos(), fmt.Sprintf("&%s literal escapes to heap", typeLabel(typeOf(info, operand))))
			}
		case *ast.Ident:
			if obj, ok := info.Uses[operand].(*types.Var); ok && !obj.IsField() && sc.escapes(node, stack) {
				sc.add(node.Pos(), fmt.Sprintf("address of local %s escapes to heap", operand.Name))
			}
		}

	case *ast.FuncLit:
		if !sc.captures(node) {
			return
		}
		if len(stack) > 0 {
			switch parent := stack[len(stack)-1].(type) {
			case *ast.CallExpr:
				if parent.Fun == node {
					return // immediately invoked: captures stay on the stack
				}
			case *ast.GoStmt, *ast.DeferStmt:
				return // the go atom covers spawning; defers are open-coded
			}
		}
		if sc.escapes(node, stack) {
			sc.add(node.Pos(), "capturing closure escapes to heap")
		}

	case *ast.CallExpr:
		sc.visitCall(node, stack)
	}
}

// visitCall handles builtins (new/make/append), type conversions (boxing,
// string↔[]byte), known stdlib allocators, variadic packing, and boxing at
// interface-typed parameters.
func (sc *allocScan) visitCall(call *ast.CallExpr, stack []ast.Node) {
	info := sc.pkg.Info
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "new":
				if sc.escapes(call, stack) {
					sc.add(call.Pos(), fmt.Sprintf("new(%s) escapes to heap", typeLabel(typeOf(info, call))))
				}
			case "make":
				sc.visitMake(call, stack)
			case "append":
				if !selfAppend(info, call, stack) {
					sc.add(call.Pos(), "append may grow its backing array (capacity not provably reused)")
				}
			}
			return
		}
	}

	// Type conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		sc.visitConversion(call, tv.Type, stack)
		return
	}

	callee := CalleeFunc(info, call)
	if callee != nil && callee.Pkg() != nil {
		key := callee.Pkg().Path() + "." + callee.Name()
		if allocPkgs[callee.Pkg().Path()] || allocFuncs[key] {
			sc.add(call.Pos(), fmt.Sprintf("calls %s.%s, a known allocator", callee.Pkg().Name(), callee.Name()))
			return // boxing into its parameters is part of the same sin
		}
	}

	// Variadic packing and interface boxing at the arguments.
	sig := signatureOf(info, fun)
	if sig == nil {
		return
	}
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
		sc.add(call.Pos(), "variadic call allocates its argument slice")
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i)
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		sc.boxing(arg, pt)
	}
}

// visitMake flags map and chan makes unconditionally; a slice make when it
// escapes or its length is not a compile-time constant (the compiler only
// stack-allocates constant-size, non-escaping makes).
func (sc *allocScan) visitMake(call *ast.CallExpr, stack []ast.Node) {
	t := typeOf(sc.pkg.Info, call)
	switch t.Underlying().(type) {
	case *types.Map:
		sc.add(call.Pos(), "make(map) allocates")
	case *types.Chan:
		sc.add(call.Pos(), "make(chan) allocates")
	case *types.Slice:
		constSize := true
		for _, szArg := range call.Args[1:] {
			if tv, ok := sc.pkg.Info.Types[szArg]; !ok || tv.Value == nil {
				constSize = false
			}
		}
		switch {
		case !constSize:
			sc.add(call.Pos(), "make([]T, n) with non-constant size allocates")
		case sc.escapes(call, stack):
			sc.add(call.Pos(), "make([]T, …) escapes to heap")
		}
	}
}

// visitConversion flags interface boxing and string↔[]byte/[]rune copies.
// A []byte→string conversion used directly as a map index or in a
// comparison is exempt: the compiler elides the copy there.
func (sc *allocScan) visitConversion(call *ast.CallExpr, target types.Type, stack []ast.Node) {
	if len(call.Args) != 1 {
		return
	}
	operand := call.Args[0]
	opT := typeOf(sc.pkg.Info, operand)
	if opT == nil {
		return
	}
	if _, isIface := target.Underlying().(*types.Interface); isIface {
		sc.boxing(operand, target)
		return
	}
	toString := isString(target) && isByteOrRuneSlice(opT)
	toSlice := isByteOrRuneSlice(target) && isString(opT)
	if !toString && !toSlice {
		return
	}
	if toString && len(stack) > 0 {
		switch parent := stack[len(stack)-1].(type) {
		case *ast.IndexExpr:
			if parent.Index == call {
				if _, isMap := typeOf(sc.pkg.Info, parent.X).Underlying().(*types.Map); isMap && !isAssignTarget(parent, stack[:len(stack)-1]) {
					return // m[string(b)] rvalue: no copy
				}
			}
		case *ast.BinaryExpr:
			switch parent.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
				return // string(b) == s: no copy
			}
		}
	}
	sc.add(call.Pos(), "string↔[]byte conversion copies")
}

// boxing flags a concrete, non-pointer-shaped, non-constant value being
// converted to an interface type. Pointer-shaped values (pointers, maps,
// chans, funcs) box without allocating; constants are skipped (small-int
// cache, and flagging `f(1)` everywhere would drown the signal).
func (sc *allocScan) boxing(arg ast.Expr, iface types.Type) {
	tv, ok := sc.pkg.Info.Types[arg]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return
	}
	t := tv.Type
	if _, already := t.Underlying().(*types.Interface); already {
		return
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return
	}
	if b, isBasic := t.Underlying().(*types.Basic); isBasic && b.Info()&types.IsUntyped != 0 {
		return
	}
	sc.add(arg.Pos(), fmt.Sprintf("boxes %s into %s", typeLabel(t), typeLabel(iface)))
}

// captures reports whether the function literal references a variable
// declared in the enclosing declaration outside the literal itself.
func (sc *allocScan) captures(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := sc.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		inDecl := pos >= sc.decl.Pos() && pos < sc.decl.End()
		inLit := pos >= lit.Pos() && pos < lit.End()
		if inDecl && !inLit {
			found = true
			return false
		}
		return true
	})
	return found
}

// escapes walks the ancestor chain deciding whether the value produced by
// node outlives the frame. See the package comment for the (deliberately
// caller-friendly) approximation.
func (sc *allocScan) escapes(node ast.Node, stack []ast.Node) bool {
	child := node
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr, *ast.KeyValueExpr, *ast.TypeAssertExpr:
			// Transparent wrappers: keep walking.
		case *ast.UnaryExpr:
			if parent.Op != token.AND {
				return false
			}
		case *ast.CompositeLit:
			// An element escapes iff the enclosing literal does.
		case *ast.ReturnStmt:
			return true
		case *ast.SendStmt:
			return parent.Value == child
		case *ast.AssignStmt:
			return sc.assignEscapes(parent, child)
		case *ast.ValueSpec:
			return sc.valueSpecEscapes(parent, child)
		case *ast.CallExpr:
			if parent.Fun == child {
				return false // immediately invoked function literal
			}
			return sc.argEscapes(parent, child)
		case *ast.IndexExpr:
			return false // keys are copied, elements are read
		case *ast.GoStmt, *ast.DeferStmt:
			return false // the go atom accounts for the spawn itself
		case *ast.BinaryExpr, *ast.StarExpr, *ast.SliceExpr,
			*ast.ExprStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.CaseClause,
			*ast.BlockStmt, *ast.IncDecStmt, *ast.SelectorExpr:
			return false
		default:
			return true // unknown context: assume the worst
		}
		child = stack[i]
	}
	return false
}

// assignEscapes decides escape through `lhs = <value>`: a store to a
// field, element, or pointee escapes; a store to a plain local escapes iff
// that local has an escaping use somewhere in the body.
func (sc *allocScan) assignEscapes(assign *ast.AssignStmt, child ast.Node) bool {
	idx := -1
	for i, rhs := range assign.Rhs {
		if rhs == child {
			idx = i
			break
		}
	}
	if idx < 0 || len(assign.Lhs) != len(assign.Rhs) {
		return true // unmatched shapes: assume the worst
	}
	switch lhs := ast.Unparen(assign.Lhs[idx]).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return false
		}
		obj := sc.pkg.Info.Defs[lhs]
		if obj == nil {
			obj = sc.pkg.Info.Uses[lhs]
		}
		return obj == nil || sc.escUse[obj]
	default:
		return true // selector/index/star: a heap-reachable store
	}
}

// valueSpecEscapes is assignEscapes for `var x = <value>` declarations.
func (sc *allocScan) valueSpecEscapes(spec *ast.ValueSpec, child ast.Node) bool {
	for i, v := range spec.Values {
		if v != child {
			continue
		}
		if i < len(spec.Names) {
			obj := sc.pkg.Info.Defs[spec.Names[i]]
			return obj == nil || sc.escUse[obj]
		}
	}
	return true
}

// argEscapes decides escape through a call argument: interface parameters
// box and retain; concrete parameters are assumed non-leaking.
func (sc *allocScan) argEscapes(call *ast.CallExpr, child ast.Node) bool {
	sig := signatureOf(sc.pkg.Info, ast.Unparen(call.Fun))
	if sig == nil {
		// Builtin (append's element args land in the slice) or unresolvable:
		// assume retention.
		return true
	}
	for i, arg := range call.Args {
		if arg != child {
			continue
		}
		pt := paramType(sig, i)
		if pt == nil {
			return true
		}
		_, isIface := pt.Underlying().(*types.Interface)
		return isIface
	}
	return true
}

// escapingUses classifies, in one pass, every object with at least one use
// the local escape test treats as escaping: returned, stored into a
// composite or through a selector/index/star assignment, passed to an
// interface parameter, captured by a nested function literal, or sent on a
// channel.
func escapingUses(pkg *Package, decl *ast.FuncDecl) map[types.Object]bool {
	esc := make(map[types.Object]bool)
	if decl.Body == nil {
		return esc
	}
	WalkStack(decl.Body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return
		}
		if identUseEscapes(pkg, id, v, decl, stack) {
			esc[v] = true
		}
	})
	return esc
}

// identUseEscapes classifies one identifier use by its ancestor chain.
func identUseEscapes(pkg *Package, id *ast.Ident, v *types.Var, decl *ast.FuncDecl, stack []ast.Node) bool {
	var child ast.Node = id
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr, *ast.UnaryExpr, *ast.KeyValueExpr:
			// Keep walking (a &x use inherits x's context).
		case *ast.ReturnStmt:
			return true
		case *ast.SendStmt:
			return parent.Value == child
		case *ast.CompositeLit:
			return true // stored into another structure
		case *ast.AssignStmt:
			// x on the RHS with a heap-reachable LHS escapes.
			for j, rhs := range parent.Rhs {
				if rhs != child || len(parent.Lhs) != len(parent.Rhs) {
					continue
				}
				switch ast.Unparen(parent.Lhs[j]).(type) {
				case *ast.Ident:
					return false // local-to-local move: not tracked further
				default:
					return true
				}
			}
			return false
		case *ast.CallExpr:
			if parent.Fun == child {
				return false
			}
			sig := signatureOf(pkg.Info, ast.Unparen(parent.Fun))
			if sig == nil {
				return false // builtins (len, cap, append self) don't retain
			}
			for j, arg := range parent.Args {
				if arg != child {
					continue
				}
				pt := paramType(sig, j)
				if pt == nil {
					return true
				}
				_, isIface := pt.Underlying().(*types.Interface)
				return isIface
			}
			return false
		case *ast.FuncLit:
			// Used inside a nested literal although declared outside it:
			// captured.
			pos := v.Pos()
			inDecl := pos >= decl.Pos() && pos < decl.End()
			inLit := pos >= parent.Pos() && pos < parent.End()
			return inDecl && !inLit
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr,
			*ast.BinaryExpr, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.CaseClause,
			*ast.BlockStmt, *ast.ExprStmt, *ast.IncDecStmt, *ast.ValueSpec,
			*ast.GoStmt, *ast.DeferStmt:
			return false
		default:
			return false
		}
		child = stack[i]
	}
	return false
}

// selfAppend reports whether the append call is the amortized reuse form
// `x = append(x, …)` (same variable, or same field of the same base), the
// idiom pooled buffers and scratch slices are built on.
func selfAppend(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 || len(stack) == 0 {
		return false
	}
	assign, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != len(assign.Rhs) {
		return false
	}
	for i, rhs := range assign.Rhs {
		if rhs == call {
			return sameStorage(info, assign.Lhs[i], call.Args[0])
		}
	}
	return false
}

// sameStorage reports whether two expressions statically denote the same
// variable or the same field of the same variable.
func sameStorage(info *types.Info, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch ae := a.(type) {
	case *ast.Ident:
		be, ok := b.(*ast.Ident)
		return ok && objectOf(info, ae) != nil && objectOf(info, ae) == objectOf(info, be)
	case *ast.SelectorExpr:
		be, ok := b.(*ast.SelectorExpr)
		return ok && objectOf(info, ae.Sel) != nil && objectOf(info, ae.Sel) == objectOf(info, be.Sel) &&
			sameStorage(info, ae.X, be.X)
	}
	return false
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// signatureOf resolves the signature a call expression invokes, or nil for
// builtins and unresolvable function values.
func signatureOf(info *types.Info, fun ast.Expr) *types.Signature {
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// paramType returns the type of the i-th argument's parameter, expanding
// the variadic tail to its element type.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		last := params.At(params.Len() - 1).Type()
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// isAssignTarget reports whether expr is the target of an assignment
// (m[string(b)] = v stores, so the key conversion is real).
func isAssignTarget(expr ast.Expr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	assign, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range assign.Lhs {
		if ast.Unparen(lhs) == expr {
			return true
		}
	}
	return false
}

// typeLabel renders a type compactly for diagnostics (package-qualified by
// name, not full path).
func typeLabel(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
