// Package wirecanon enforces the paper's §6 remedy as a build error: a
// name must be converted to its coherent (canonical) wire form before it
// is embedded in a message. Inside the transport packages, any value
// flowing into a wire struct's Path/Paths field must come from a
// canonicalization function — one carrying a //namingvet:canonicalizer
// directive (or trivially wrapping one). Raw `string(n)` conversions and
// untracked variables are exactly how a relative or separator-bearing name
// leaks onto the wire and resolves against the wrong root on the far side.
//
// Two rules:
//
//  1. Field flow: composite literals and assignments targeting a wire
//     struct's Path ([]string) or Paths ([][]string) field must take their
//     value from a canonicalizer call, a variable assigned from one, or an
//     empty container (nil / make) that is filled element-wise from one.
//  2. Boundary functions: a function that takes a core.Path (or []core.Path)
//     parameter and reaches conn I/O must also reach a canonicalizer —
//     otherwise it is a transmission path on which no coherence conversion
//     can possibly have happened.
package wirecanon

import (
	"go/ast"
	"go/types"

	"namecoherence/internal/analysis"
)

// Analyzer is the wirecanon analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "wirecanon",
	Doc:  "requires values flowing into wire-struct Path/Paths fields to pass through a canonicalization function (§6)",
	Run:  run,
	// Scope limits the analyzer to transport packages.
	Scope: []string{"cluster", "nameserver"},
}

func run(pass *analysis.Pass) (any, error) {
	for _, ff := range pass.Facts.Own {
		// The field-flow rule is a send-side obligation: canonicalize
		// before embedding in a message. A declared wire decoder is the
		// receive side — its Path/Paths stores carry bytes that arrived
		// off the wire, re-validated where they are used — so the rule
		// does not apply there.
		if !ff.WireDecoder {
			checkFieldFlow(pass, ff.Decl)
		}
		checkBoundary(pass, ff)
	}
	return nil, nil
}

// checkFieldFlow walks one function body tracking which locals hold
// canonicalized values and reporting wire-field stores that bypass them.
func checkFieldFlow(pass *analysis.Pass, decl *ast.FuncDecl) {
	canon := make(map[types.Object]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			// raw, err := canonicalizer(p) taints raw as canonical; any
			// later reassignment from a non-canonical source clears it.
			if len(node.Rhs) == 1 {
				from := canonicalValue(pass, canon, node.Rhs[0])
				for i, lhs := range node.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj == nil {
						continue
					}
					// Only the value result of a canonicalizer call is
					// canonical; the trailing error result is not.
					canon[obj] = from && i == 0
				}
			}
			for i, lhs := range node.Lhs {
				if field, base := wireFieldTarget(pass, lhs); field != "" {
					rhs := node.Rhs[0]
					if len(node.Rhs) == len(node.Lhs) {
						rhs = node.Rhs[i]
					}
					if !canonicalValue(pass, canon, rhs) {
						pass.Reportf(node.Pos(),
							"value stored in wire field %s.%s does not pass through a canonicalization function (§6: canonicalize before embedding in a message)",
							base, field)
					}
				}
			}
		case *ast.CompositeLit:
			if !isWireStruct(pass.TypesInfo.Types[node].Type) {
				return true
			}
			name := wireStructName(pass.TypesInfo.Types[node].Type)
			for _, elt := range node.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !wireField(key.Name) {
					continue
				}
				if !canonicalValue(pass, canon, kv.Value) {
					pass.Reportf(kv.Value.Pos(),
						"value stored in wire field %s.%s does not pass through a canonicalization function (§6: canonicalize before embedding in a message)",
						name, key.Name)
				}
			}
		}
		return true
	})
}

// checkBoundary applies rule 2 to one function.
func checkBoundary(pass *analysis.Pass, ff *analysis.FuncFacts) {
	if !ff.Summary.ConnIO || ff.Summary.ReachesCanon {
		return
	}
	sig := ff.Fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if s, ok := t.(*types.Slice); ok {
			t = s.Elem()
		}
		if analysis.IsNamedType(t, "namecoherence/internal/core", "Path") {
			pass.Reportf(ff.Decl.Name.Pos(),
				"%s takes a core.Path and reaches wire I/O but never canonicalizes a name (§6: convert to coherent form before transmission)",
				ff.Decl.Name.Name)
			return
		}
	}
}

// canonicalValue reports whether e is an acceptable source for a wire
// Path/Paths field.
func canonicalValue(pass *analysis.Pass, canon map[types.Object]bool, e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v.Name == "nil" {
			return true
		}
		return canon[pass.TypesInfo.Uses[v]]
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "make" {
			if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
				// A fresh empty container is fine; the element stores are
				// checked at their own assignment sites.
				return true
			}
		}
		callee := analysis.CalleeFunc(pass.TypesInfo, v)
		if callee == nil {
			return false
		}
		if ff := pass.Facts.OwnFacts(callee); ff != nil {
			return ff.Summary.Canonicalizes
		}
		return pass.Facts.All[analysis.FuncKey(callee)].Canonicalizes
	case *ast.IndexExpr:
		// raws[i] where raws came from a canonicalizer.
		if id, ok := ast.Unparen(v.X).(*ast.Ident); ok {
			return canon[pass.TypesInfo.Uses[id]]
		}
	}
	return false
}

// wireFieldTarget matches assignment targets of the form x.Path,
// x.Paths, x.Path[i], or x.Paths[i] where x is a wire struct, returning
// the field and struct names ("" if not a wire-field store).
func wireFieldTarget(pass *analysis.Pass, lhs ast.Expr) (field, base string) {
	e := ast.Unparen(lhs)
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(idx.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !wireField(sel.Sel.Name) {
		return "", ""
	}
	t := pass.TypesInfo.Types[sel.X].Type
	if !isWireStruct(t) {
		return "", ""
	}
	return sel.Sel.Name, wireStructName(t)
}

func wireField(name string) bool { return name == "Path" || name == "Paths" }

// isWireStruct reports whether t (after pointer indirection) is a named
// struct with a Path []string or Paths [][]string field — the duck test
// for this module's wire requests.
func isWireStruct(t types.Type) bool {
	return wireStructName(t) != ""
}

func wireStructName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch f.Name() {
		case "Path":
			if isStringSlice(f.Type(), 1) {
				return named.Obj().Name()
			}
		case "Paths":
			if isStringSlice(f.Type(), 2) {
				return named.Obj().Name()
			}
		}
	}
	return ""
}

// isStringSlice reports whether t is a depth-deep slice of string.
func isStringSlice(t types.Type, depth int) bool {
	for ; depth > 0; depth-- {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		t = s.Elem()
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}
