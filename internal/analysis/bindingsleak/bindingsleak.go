// Package bindingsleak protects the paper's N → E abstraction (Section 2):
// a context object's binding map is the total function the coherence
// machinery measures, so it must change only through the owning type's
// accessor methods (Bind/Unbind), which hold its lock and keep the
// watch/revision bookkeeping honest. The analyzer finds every struct field
// named "bindings" whose type is a map or a struct (a hand-rolled table,
// as core.BasicContext's is) and reports:
//
//   - any access to the field outside a method of the owning type, and
//   - any escape of the raw map from inside a method — returning it,
//     passing it to a non-builtin call, storing it in a composite literal,
//     or sending it on a channel. Hand out a copy (Snapshot/Clone), never
//     the map. A struct-typed table's own methods are contained uses: a
//     copy of the struct would share its slots, so passing the struct
//     itself is an escape, calling its methods is not.
package bindingsleak

import (
	"go/ast"
	"go/types"

	"namecoherence/internal/analysis"
)

// Analyzer is the bindingsleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "bindingsleak",
	Doc:  "keeps context binding maps inside their owning type's methods and stops the raw map from escaping",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	owners := bindingFields(pass.Pkg)
	if len(owners) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			selection := pass.TypesInfo.Selections[sel]
			if selection == nil || selection.Kind() != types.FieldVal {
				return
			}
			field, ok := selection.Obj().(*types.Var)
			if !ok {
				return
			}
			owner, tracked := owners[field]
			if !tracked {
				return
			}
			if !inMethodOf(pass, stack, owner) {
				pass.Reportf(sel.Pos(),
					"bindings map of %s accessed outside its methods; mutate through Bind/Unbind to keep N → E coherent",
					owner.Obj().Name())
				return
			}
			if how := escapes(pass, sel, stack); how != "" {
				pass.Reportf(sel.Pos(),
					"bindings map of %s escapes via %s; hand out a copy so bindings mutate only through methods",
					owner.Obj().Name(), how)
			}
		})
	}
	return nil, nil
}

// bindingFields maps each map- or struct-typed struct field named
// "bindings" to the named type that owns it.
func bindingFields(pkg *types.Package) map[*types.Var]*types.Named {
	owners := make(map[*types.Var]*types.Named)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() != "bindings" {
				continue
			}
			switch f.Type().Underlying().(type) {
			case *types.Map, *types.Struct:
				owners[f] = named
			}
		}
	}
	return owners
}

// inMethodOf reports whether the innermost enclosing function declaration
// is a method of owner (any receiver instance counts — Clone filling a
// fresh BasicContext is as legitimate as the receiver itself).
func inMethodOf(pass *analysis.Pass, stack []ast.Node, owner *types.Named) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		fn, ok := stack[i].(*ast.FuncDecl)
		if !ok {
			continue
		}
		obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
		if obj == nil {
			return false
		}
		named := analysis.RecvNamed(obj)
		return named != nil && named.Obj() == owner.Obj()
	}
	return false
}

// escapes classifies how the raw map leaves the method through its
// immediate syntactic context, or returns "" when the use is a contained
// read/write (indexing, ranging, len/delete/clear, reassignment).
func escapes(pass *analysis.Pass, sel *ast.SelectorExpr, stack []ast.Node) string {
	if len(stack) == 0 {
		return ""
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.ReturnStmt:
		return "return"
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == ast.Expr(sel) {
				if analysis.BuiltinName(pass.TypesInfo, p) != "" {
					return ""
				}
				return "call argument"
			}
		}
	case *ast.KeyValueExpr:
		if p.Value == ast.Expr(sel) {
			return "composite literal"
		}
	case *ast.CompositeLit:
		return "composite literal"
	case *ast.SendStmt:
		if p.Value == ast.Expr(sel) {
			return "channel send"
		}
	}
	return ""
}
