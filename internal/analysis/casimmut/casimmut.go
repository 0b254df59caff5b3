// Package casimmut guards the content-addressed store's two foundational
// promises. Blobs are immutable: a caller who hands a byte slice to
// Store.Put or Backend.Put gives up the right to write into it, because
// backends are free to retain the slice (Mem does) and a later mutation
// would silently corrupt a blob whose hash no longer matches its bytes —
// Get would then report ErrCorrupt for data that was never damaged on
// disk. And Puts are durable: a file-writing Backend.Put that returns
// success has fsynced what it wrote, because snapstore commits manifest
// entries naming those blobs the moment Put returns nil, and a crash
// after an unsynced success would leave the manifest pointing at blobs
// the filesystem never persisted.
//
// The first check is caller-side and lexical: inside one function, any
// write into a []byte value (index assignment, copy into it, append to
// it) after that value was passed to a cas Put is flagged, until the
// variable is rebound to a fresh slice. The second is implementor-side:
// inside cas packages, a method named Put that writes files must call
// File.Sync, and must not write again after its final Sync.
package casimmut

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"namecoherence/internal/analysis"
)

// casPackage is the name of the packages whose Put methods the checks are
// about. The durability check runs inside them; the immutability check is
// global — blob buffers are handed to Put from anywhere — so the analyzer
// carries no Scope and recognises a cas package where it meets one.
const casPackage = "cas"

// Analyzer is the casimmut analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "casimmut",
	Doc:  "forbids mutating a blob after cas Put returns and unsynced file writes in Backend.Put",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFrozenBlobs(pass, fd)
			if fd.Recv != nil && fd.Name.Name == "Put" && pass.Pkg.Name() == casPackage {
				checkPutDurability(pass, fd)
			}
		}
	}
	return nil, nil
}

// event is one lexically ordered fact about a blob variable inside a
// function: it was handed to Put (frozen), written into (mutation), or
// rebound to a fresh slice (thawed).
type event struct {
	pos  token.Pos
	kind int // evPut, evMutate, evRebind
	obj  types.Object
	verb string // for evMutate: how the blob is written
}

const (
	evPut = iota
	evMutate
	evRebind
)

// checkFrozenBlobs enforces the caller-side immutability promise within
// one function body: collect the Put/mutate/rebind events in source
// order, then replay them, reporting every write into a still-frozen
// blob. Object identity (not the variable's name) is tracked, so a
// shadowing := starts a fresh, writable slice.
func checkFrozenBlobs(pass *analysis.Pass, fd *ast.FuncDecl) {
	var events []event
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			events = append(events, callEvents(pass, n)...)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj := baseVar(pass, indexBase(lhs)); obj != nil && lhs != indexBase(lhs) {
					events = append(events, event{pos: lhs.Pos(), kind: evMutate, obj: obj, verb: "index write into"})
				} else if obj := baseVar(pass, lhs); obj != nil {
					// Whole-variable rebinding takes effect after the
					// statement, so an append(x, ...) on the RHS is
					// still judged against the frozen x.
					events = append(events, event{pos: n.End(), kind: evRebind, obj: obj})
				}
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	frozen := make(map[types.Object]bool)
	for _, e := range events {
		switch e.kind {
		case evPut:
			frozen[e.obj] = true
		case evRebind:
			delete(frozen, e.obj)
		case evMutate:
			if frozen[e.obj] {
				pass.Reportf(e.pos,
					"%s blob %s after Put returned; stored bytes must stay immutable (rebind the variable to a fresh slice instead)",
					e.verb, e.obj.Name())
			}
		}
	}
}

// callEvents extracts the events one call contributes: freezing every
// []byte identifier handed to a cas Put, or mutating the destination of
// a builtin copy/append.
func callEvents(pass *analysis.Pass, call *ast.CallExpr) []event {
	if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil &&
		fn.Name() == "Put" && fn.Pkg() != nil && fn.Pkg().Name() == casPackage {
		var evs []event
		for _, arg := range call.Args {
			if obj := baseVar(pass, arg); obj != nil {
				// Frozen from the moment the call returns.
				evs = append(evs, event{pos: call.End(), kind: evPut, obj: obj})
			}
		}
		return evs
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); !builtin {
		return nil
	}
	var verb string
	switch id.Name {
	case "copy":
		verb = "copy into"
	case "append":
		verb = "append to"
	default:
		return nil
	}
	if obj := baseVar(pass, call.Args[0]); obj != nil {
		return []event{{pos: call.Args[0].Pos(), kind: evMutate, obj: obj, verb: verb}}
	}
	return nil
}

// indexBase strips index and slice expressions: data[i] and data[i:j]
// both write into (or alias) data's backing array.
func indexBase(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}

// baseVar resolves e to the variable it names, if e is a plain
// identifier of byte-slice type.
func baseVar(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	sl, ok := obj.Type().Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ifObj(ok && b.Kind() == types.Byte, obj)
}

func ifObj(ok bool, obj types.Object) types.Object {
	if !ok {
		return nil
	}
	return obj
}

// checkPutDurability enforces the implementor-side durability promise:
// a Put method that writes files must fsync what it wrote. Lexically, a
// body with file writes needs at least one File.Sync, and nothing may
// be written after the final Sync — those bytes would be unsynced when
// Put reports success.
func checkPutDurability(pass *analysis.Pass, fd *ast.FuncDecl) {
	var writes, syncs []token.Pos
	firstWriteName := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		switch {
		case fn.Pkg() != nil && fn.Pkg().Path() == "os" && fn.Name() == "WriteFile":
			writes = append(writes, call.Pos())
			if firstWriteName == "" {
				firstWriteName = "os.WriteFile"
			}
		case sig != nil && sig.Recv() != nil && analysis.IsNamedType(sig.Recv().Type(), "os", "File"):
			switch fn.Name() {
			case "Write", "WriteString", "WriteAt":
				writes = append(writes, call.Pos())
				if firstWriteName == "" {
					firstWriteName = "File." + fn.Name()
				}
			case "Sync":
				syncs = append(syncs, call.Pos())
			}
		}
		return true
	})
	if len(writes) == 0 {
		return
	}
	if len(syncs) == 0 {
		pass.Reportf(writes[0],
			"file-writing Put must reach fsync before success: %s is not durable when Put returns nil", firstWriteName)
		return
	}
	lastWrite, lastSync := writes[len(writes)-1], syncs[len(syncs)-1]
	if lastWrite > lastSync {
		pass.Reportf(lastWrite,
			"write after the final fsync in Put: these bytes are not durable when Put returns nil")
	}
}
