package analysis

import (
	"go/ast"
	"go/types"
)

// CallSite is one static call made from a declared function's body. Calls
// through function values, interface methods without a static callee, and
// built-ins are not recorded — the summary layer treats them as opaque.
type CallSite struct {
	// Callee is the statically resolved target.
	Callee *types.Func
	// Call is the call expression; its position orders the call against
	// deadline events and places call-site diagnostics.
	Call *ast.CallExpr
	// kind is what classifyCall makes of Callee.
	kind callKind
}

// CallGraph is the static call structure of one package: every declared
// function, in declaration order, with the calls its body makes. Nested
// function literals are folded into the enclosing declaration — for the
// summary properties (sets a deadline, may park) a closure's work is the
// declaring function's work.
type CallGraph struct {
	// Order lists the package's declared functions in source order.
	Order []*types.Func
	// Decls maps each declared function to its syntax.
	Decls map[*types.Func]*ast.FuncDecl
	// Calls maps each declared function to its static call sites, in
	// lexical order.
	Calls map[*types.Func][]CallSite
}

// BuildCallGraph computes the package's call graph in one walk of its
// files. Same-package edges carry the callee's declaration; cross-package
// callees are recorded by their types.Func only (their properties come
// from imported facts).
func BuildCallGraph(pkg *Package) *CallGraph {
	g := &CallGraph{
		Decls: make(map[*types.Func]*ast.FuncDecl),
		Calls: make(map[*types.Func][]CallSite),
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			var obj *types.Func
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, _ = pkg.Info.Defs[fn.Name].(*types.Func); obj != nil {
					g.Order = append(g.Order, obj)
					g.Decls[obj] = fn
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && obj != nil {
					if callee := CalleeFunc(pkg.Info, call); callee != nil {
						kind, _ := classifyCall(callee)
						g.Calls[obj] = append(g.Calls[obj], CallSite{Callee: callee, Call: call, kind: kind})
					}
				}
				return true
			})
		}
	}
	return g
}
