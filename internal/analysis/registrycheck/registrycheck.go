// Package registrycheck checks handler exhaustiveness on the wire: every
// field of the nameserver's request struct must be read somewhere in the
// package outside the request's own codec functions, or a request kind
// exists that the server silently ignores. The codec's own coverage — that
// every field of every wire type survives encode and decode — is a run-time
// test (TestWireRoundTrip), not a rule here.
package registrycheck

import (
	"go/ast"
	"go/types"

	"namecoherence/internal/analysis"
)

// RequestType is the struct whose fields the rule covers; the check is
// silent in packages that do not declare it.
const RequestType = "request"

// codecFuncs are the request's own encoder and decoder, which read every
// field in order to encode it and handle none.
var codecFuncs = map[string]bool{"appendRequest": true, "parseRequest": true}

// Analyzer is the registrycheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "registrycheck",
	Doc:  "requires every field of the wire request to be read by some handler outside the codec",
	Run:  run,
	// Scope limits the analyzer to the package that owns the wire.
	Scope: []string{"nameserver"},
}

func run(pass *analysis.Pass) (any, error) {
	obj, ok := pass.Pkg.Scope().Lookup(RequestType).(*types.TypeName)
	if !ok {
		return nil, nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	read := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv == nil && codecFuncs[fd.Name.Name] {
				return false
			}
			if assign, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range assign.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						// A bare store is not handling; only the selector's
						// base expression counts as read.
						markSelRead(pass, read, sel.X)
					} else {
						// Indexed stores like req.Paths[k] = v do read the
						// field (to index it), as do other compound targets.
						markSelRead(pass, read, lhs)
					}
				}
				for _, rhs := range assign.Rhs {
					markSelRead(pass, read, rhs)
				}
				return false
			}
			if sel, ok := n.(*ast.SelectorExpr); ok {
				markSelRead(pass, read, sel)
				return false
			}
			return true
		})
	}
	for i := 0; i < st.NumFields(); i++ {
		if field := st.Field(i); !read[field] {
			pass.Reportf(field.Pos(),
				"%s field %s is never read in this package: a request kind no handler serves",
				RequestType, field.Name())
		}
	}
	return nil, nil
}

// markSelRead records every field selection inside e as a read.
func markSelRead(pass *analysis.Pass, read map[*types.Var]bool, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok {
				read[v] = true
			}
		}
		return true
	})
}
