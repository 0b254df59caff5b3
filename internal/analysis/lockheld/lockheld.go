// Package lockheld flags blocking I/O reachable while a sync.Mutex or
// sync.RWMutex is held: net.Conn reads and writes, Dial-ish calls, and
// time.Sleep. A name server that blocks on the network
// while holding the lock that guards its caches or connection pool wedges
// every other request behind one slow peer — the repo's hot paths
// (connPool, Server, cluster Client) must never do it.
//
// The check is intraprocedural for lock state but interprocedural for I/O:
// a same-package function that (transitively) performs blocking I/O taints
// its callers, so `mu.Lock(); c.roundTrip(req)` is caught even though the
// conn I/O lives inside roundTrip. Cross-package calls are checked the
// same way through the facts layer: a module function whose exported
// Blocks summary is set (it reaches conn I/O or time.Sleep) taints its
// callers in every dependent package.
package lockheld

import (
	"go/ast"
	"go/types"

	"namecoherence/internal/analysis"
)

// Analyzer is the lockheld analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Doc:  "flags blocking I/O (net.Conn, Dial*, Sleep) while a sync mutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	io := buildIOSet(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			s := &scanner{pass: pass, io: io}
			s.block(fn.Body.List, nil)
		}
	}
	return nil, nil
}

// buildIOSet computes the set of same-package functions that perform
// blocking I/O, directly or through same-package calls (transitive
// closure over the package's static call graph).
func buildIOSet(pass *analysis.Pass) map[*types.Func]bool {
	direct := make(map[*types.Func]bool)
	callees := make(map[*types.Func][]*types.Func)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if blockingCall(pass, call) != "" {
					direct[obj] = true
				}
				if callee := analysis.CalleeFunc(pass.TypesInfo, call); callee != nil &&
					callee.Pkg() == pass.Pkg {
					callees[obj] = append(callees[obj], callee)
				}
				return true
			})
		}
	}
	// Propagate taint to callers until the set stops growing.
	closure := make(map[*types.Func]bool, len(direct))
	for fn := range direct {
		closure[fn] = true
	}
	for changed := true; changed; {
		changed = false
		for fn, outs := range callees {
			if closure[fn] {
				continue
			}
			for _, out := range outs {
				if closure[out] {
					closure[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return closure
}

// blockingCall classifies a call as direct blocking I/O, returning a short
// description ("" if it is not).
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	switch fn.Name() {
	case "Read", "Write":
		// os.File passes the conn duck test (it has SetDeadline for
		// pipes), but a file write blocks for one disk flush, not for as
		// long as a hung peer pleases — serializing a manifest rewrite
		// under its store's lock is the intended pattern, and casimmut
		// owns the durability side of file writes.
		if recv != nil && analysis.HasMethods(recv.Type(), "Read", "Write", "SetDeadline") &&
			!analysis.IsNamedType(recv.Type(), "os", "File") {
			return "net.Conn " + fn.Name()
		}
	case "Sleep":
		if fn.Pkg() != nil && fn.Pkg().Path() == "time" {
			return "time.Sleep"
		}
	}
	if len(fn.Name()) >= 4 {
		head := fn.Name()[:4]
		if head == "Dial" || head == "dial" {
			return fn.Name()
		}
	}
	return ""
}

// heldLock is one acquired mutex, identified by the source text of its
// receiver expression ("c.mu").
type heldLock struct {
	name string
}

// scanner walks a function body in statement order, tracking which mutexes
// are held. Branch bodies are scanned with a copy of the entry state, so
// the common `if cond { mu.Unlock(); return }` early-exit idiom does not
// poison the fall-through path. Function literals are scanned separately
// with an empty state (a spawned or stored closure does not inherit the
// creating goroutine's locks).
type scanner struct {
	pass *analysis.Pass
	io   map[*types.Func]bool
}

func (s *scanner) block(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, stmt := range stmts {
		held = s.stmt(stmt, held)
	}
	return held
}

func (s *scanner) stmt(stmt ast.Stmt, held []heldLock) []heldLock {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if name, locking := s.lockEvent(st.X); name != "" {
			if locking {
				return append(held, heldLock{name: name})
			}
			return release(held, name)
		}
		s.expr(st.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to the end of the
		// function; nothing to update. Other deferred work is scanned as
		// a fresh function.
		if name, locking := s.lockEvent(st.Call); name != "" && !locking {
			return held
		}
		s.expr(st.Call.Fun, nil)
		for _, arg := range st.Call.Args {
			s.expr(arg, held)
		}
	case *ast.GoStmt:
		s.expr(st.Call.Fun, nil)
		for _, arg := range st.Call.Args {
			s.expr(arg, held)
		}
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			s.expr(rhs, held)
		}
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				s.expr(e, held)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.expr(r, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		s.expr(st.Cond, held)
		s.block(st.Body.List, copyHeld(held))
		if st.Else != nil {
			s.stmt(st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			s.expr(st.Cond, held)
		}
		s.block(st.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		s.expr(st.X, held)
		s.block(st.Body.List, copyHeld(held))
	case *ast.BlockStmt:
		held = s.block(st.List, held)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch c := n.(type) {
			case *ast.CaseClause:
				s.block(c.Body, copyHeld(held))
				return false
			case *ast.CommClause:
				s.block(c.Body, copyHeld(held))
				return false
			}
			return true
		})
	case *ast.SendStmt:
		s.expr(st.Value, held)
	case *ast.LabeledStmt:
		held = s.stmt(st.Stmt, held)
	}
	return held
}

// expr reports blocking calls inside e (entered with the given lock state);
// nested function literals are scanned with a fresh, empty state.
func (s *scanner) expr(e ast.Expr, held []heldLock) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			if node.Body != nil {
				sub := &scanner{pass: s.pass, io: s.io}
				sub.block(node.Body.List, nil)
			}
			return false
		case *ast.CallExpr:
			if len(held) == 0 {
				return true
			}
			if what := blockingCall(s.pass, node); what != "" {
				s.pass.Reportf(node.Pos(), "%s while %s is held", what, held[len(held)-1].name)
				return true
			}
			if fn := analysis.CalleeFunc(s.pass.TypesInfo, node); fn != nil {
				if s.io[fn] {
					s.pass.Reportf(node.Pos(), "call to %s, which performs blocking I/O, while %s is held",
						fn.Name(), held[len(held)-1].name)
				} else if fn.Pkg() != nil && fn.Pkg() != s.pass.Pkg &&
					s.pass.Facts.All[analysis.FuncKey(fn)].Blocks {
					s.pass.Reportf(node.Pos(), "call to %s.%s, which performs blocking I/O, while %s is held",
						fn.Pkg().Name(), fn.Name(), held[len(held)-1].name)
				}
			}
		}
		return true
	})
}

// lockEvent classifies e as a Lock/RLock (locking=true) or Unlock/RUnlock
// (locking=false) call on a sync.Mutex or sync.RWMutex, returning the
// receiver's source text as the lock's identity ("" if not a lock op).
func (s *scanner) lockEvent(e ast.Expr) (name string, locking bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", false
	}
	fn, _ := s.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if !analysis.IsNamedType(recv, "sync", "Mutex") && !analysis.IsNamedType(recv, "sync", "RWMutex") {
		return "", false
	}
	return exprText(sel.X), sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock"
}

// release removes the most recent hold of name.
func release(held []heldLock, name string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].name == name {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

func copyHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// exprText renders a selector chain like c.mu; other shapes fall back to a
// generic tag so the lock is still tracked.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprText(x.X)
	case *ast.StarExpr:
		return exprText(x.X)
	case *ast.UnaryExpr:
		return exprText(x.X)
	case *ast.IndexExpr:
		return exprText(x.X) + "[…]"
	}
	return "a mutex"
}
