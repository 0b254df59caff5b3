// Package registrycheck keeps the wire registry exhaustive. The
// nameserver's wire.go declares a wireTypes map naming every struct that
// crosses the wire, and codec.go hand-rolls an append<T>/parse<T> pair per
// type; nothing at run time connects the two, so a type one of them forgot
// is a frame that silently drops data. The analyzer computes the closure of
// package-local struct types reachable, through struct fields, from the
// types the codec functions are named for, and demands it equal the
// registry, in both directions. Every type in both needs the full
// append<T>/parse<T> pair, and each function must touch every field of its
// type — a field the encoder skips vanishes from frames with no runtime
// error. It also checks handler exhaustiveness: every field of the request
// struct must be read somewhere in the package, or a request kind exists
// that the server silently ignores.
package registrycheck

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"namecoherence/internal/analysis"
)

// RegistryVar is the name of the registry map the analyzer audits; the
// check is silent in packages that do not declare it.
const RegistryVar = "wireTypes"

// RequestType is the struct whose fields the handler-exhaustiveness rule
// covers.
const RequestType = "request"

// Analyzer is the registrycheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "registrycheck",
	Doc:  "requires every type the binary codec encodes to appear in the wireTypes registry, every request field to be handled, and every registered type's codec functions to cover all fields",
	Run:  run,
	// Scope limits the analyzer to packages that own a wire registry.
	Scope: []string{"nameserver"},
}

func run(pass *analysis.Pass) (any, error) {
	registry, positions := registryEntries(pass)
	if registry == nil {
		return nil, nil
	}

	decls := topLevelFuncs(pass)
	reachable := wireClosure(pass, decls)

	// Direction 1: every type that crosses the wire is registered.
	for _, named := range sortedTypes(reachable) {
		if !registry[named] {
			pass.Reportf(reachable[named].Pos(),
				"wire type %s is reachable from the binary codec but is missing from the %s registry",
				named.Obj().Name(), RegistryVar)
		}
	}
	// Direction 2: every registered type actually crosses the wire.
	for _, named := range sortedTypes(positions) {
		if _, ok := reachable[named]; !ok {
			pass.Reportf(positions[named].Pos(),
				"%s entry %s is not reachable from any binary codec function; dead registry entries hide real gaps",
				RegistryVar, named.Obj().Name())
		}
	}

	checkRequestFields(pass, decls)
	checkBinaryCodec(pass, decls, positions, reachable)
	return nil, nil
}

// topLevelFuncs indexes the package's plain functions by name.
func topLevelFuncs(pass *analysis.Pass) map[string]*ast.FuncDecl {
	decls := make(map[string]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				decls[fd.Name.Name] = fd
			}
		}
	}
	return decls
}

// codecFuncNames maps a registered type name to its binary codec function
// names ("request" → appendRequest/parseRequest).
func codecFuncNames(typeName string) (appendName, parseName string) {
	upper := strings.ToUpper(typeName[:1]) + typeName[1:]
	return "append" + upper, "parse" + upper
}

// checkBinaryCodec enforces codec completeness over the registered types
// that cross the wire (a dead entry has been reported as such already):
// each needs the full append<T>/parse<T> pair, and each function must
// touch every field of its type. "Touch" is any selection of the field in
// the function body — encoders read fields, decoders assign them, and
// either appears as a selector — so a new wire field that only one side
// handles is caught at the side that forgot it.
func checkBinaryCodec(pass *analysis.Pass, decls map[string]*ast.FuncDecl, positions, reachable map[*types.Named]ast.Node) {
	for _, named := range sortedTypes(positions) {
		if _, crosses := reachable[named]; !crosses {
			continue
		}
		st := named.Underlying().(*types.Struct)
		appendName, parseName := codecFuncNames(named.Obj().Name())
		for _, fnName := range []string{appendName, parseName} {
			fd := decls[fnName]
			if fd == nil {
				pass.Reportf(positions[named].Pos(),
					"wire type %s has no binary codec function %s: frames of this type cannot cross the binary wire",
					named.Obj().Name(), fnName)
				continue
			}
			touched := fieldsTouched(pass, fd)
			for i := 0; i < st.NumFields(); i++ {
				field := st.Field(i)
				if !touched[field] {
					pass.Reportf(fd.Name.Pos(),
						"binary codec function %s never touches %s.%s: the field would be silently dropped from binary frames",
						fnName, named.Obj().Name(), field.Name())
				}
			}
		}
	}
}

// fieldsTouched collects every struct field selected anywhere in fd's body.
func fieldsTouched(pass *analysis.Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	if fd.Body == nil {
		return out
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// registryEntries reads the package-level RegistryVar composite literal,
// returning the set of named types it registers and each entry's position.
// nil means the package has no registry to audit.
func registryEntries(pass *analysis.Pass) (map[*types.Named]bool, map[*types.Named]ast.Node) {
	var lit *ast.CompositeLit
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != RegistryVar || i >= len(vs.Values) {
						continue
					}
					if cl, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit); ok {
						lit = cl
					}
				}
			}
		}
	}
	if lit == nil {
		return nil, nil
	}
	set := make(map[*types.Named]bool)
	where := make(map[*types.Named]ast.Node)
	for _, elt := range lit.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		if named := localNamed(pass, pass.TypesInfo.Types[val].Type); named != nil {
			set[named] = true
			where[named] = val
		}
	}
	return set, where
}

// wireClosure finds every package-local named struct type the binary
// codec can put on the wire: the type T of each append<T>/parse<T> function
// (first letter in either case, as codecFuncNames maps it), and whatever
// those reach through struct fields. Each is mapped to the position of its
// declaration.
func wireClosure(pass *analysis.Pass, decls map[string]*ast.FuncDecl) map[*types.Named]ast.Node {
	out := make(map[*types.Named]ast.Node)
	var add func(t types.Type, at ast.Node)
	add = func(t types.Type, at ast.Node) {
		named := localNamed(pass, t)
		if named == nil {
			switch u := t.(type) {
			case *types.Pointer:
				add(u.Elem(), at)
			case *types.Slice:
				add(u.Elem(), at)
			case *types.Array:
				add(u.Elem(), at)
			case *types.Map:
				add(u.Elem(), at)
			}
			return
		}
		if _, seen := out[named]; seen {
			return
		}
		out[named] = declNode(pass, named, at)
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			add(st.Field(i).Type(), at)
		}
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		appendName, parseName := codecFuncNames(name)
		for _, fd := range []*ast.FuncDecl{decls[appendName], decls[parseName]} {
			if fd != nil {
				add(tn.Type(), fd)
			}
		}
	}
	return out
}

// declNode finds the type's declaration spec in the package files, so the
// diagnostic lands on `type request struct` rather than on some call site.
func declNode(pass *analysis.Pass, named *types.Named, fallback ast.Node) ast.Node {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if ok && pass.TypesInfo.Defs[ts.Name] == named.Obj() {
					return ts
				}
			}
		}
	}
	return fallback
}

// checkRequestFields demands that every field of the request struct is
// read (as an rvalue selector) somewhere in the package — outside the
// request's own codec functions, which read every field in order to encode
// it and handle none.
func checkRequestFields(pass *analysis.Pass, decls map[string]*ast.FuncDecl) {
	scope := pass.Pkg.Scope()
	obj, ok := scope.Lookup(RequestType).(*types.TypeName)
	if !ok {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	appendName, parseName := codecFuncNames(RequestType)
	read := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && (fd == decls[appendName] || fd == decls[parseName]) {
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
		field := st.Field(i)
		if !read[field] {
			pass.Reportf(field.Pos(),
				"%s field %s is never read in this package: a request kind no handler serves",
				RequestType, field.Name())
		}
	}
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

// sortedTypes orders a type-keyed map by type name so diagnostics come out
// deterministically (detrand's own rule applies to us too).
func sortedTypes(m map[*types.Named]ast.Node) []*types.Named {
	out := make([]*types.Named, 0, len(m))
	for named := range m {
		out = append(out, named)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Obj().Name() < out[j].Obj().Name()
	})
	return out
}

// localNamed returns t as a named type declared in this package (after
// pointer indirection), or nil.
func localNamed(pass *analysis.Pass, t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}
