// Lock facts for the whole lock family (lockorder, lockblock, lockexit).
// lockScan is the one walker in the module that threads a held-set through
// a function body: per function, lockFlow scans the body in statement
// order tracking which mutexes are held, and records four event streams:
//
//   - LockAcquires: direct Lock/RLock calls, each with a snapshot of the
//     locks already held;
//   - LockCalls: statically resolved calls, with the held-set at entry;
//   - BlockOps: operations that can park the goroutine indefinitely —
//     channel send/receive, select with no default, range over a channel,
//     and the calls classifyCall catalogues (conn Read/Write, Dial*,
//     time.Sleep, WaitGroup.Wait, Cond.Wait);
//   - LockExits: every return, and every reachable closing brace, of the
//     body and of each literal nested in it, reached with a lock held.
//
// A fixpoint then folds callee facts caller-ward, exactly like the
// deadline flow: AcquiresLocks is the transitive set of locks a call
// may take (with a sample call chain), MayPark taints callers of parking
// functions, and LockEdges is the per-function slice of the module-global
// acquisition graph ("Held was held when Acq was acquired") whose cycles
// lockorder reports as potential deadlocks.
//
// A held lock carries two names. Its ID is the receiver type plus field
// path ("(*nameserver.Server).mu"; package-level variables are
// "pkgname.varname", locals fall back to a function-qualified name): the
// identity that survives package boundaries, used for edges and
// diagnostics. Two instances of the same type share an ID — the usual
// static abstraction; it can merge distinct locks (hand-over-hand locking
// over siblings would false-positive) but the repo's locks are
// one-per-struct. Its Text is the receiver's source text ("s.mu"), which
// inside one body is instance-precise: releases match on it, so
// `a.mu.Lock(); b.mu.Unlock()` leaves a.mu held. The other biases run the
// framework way: calls through function values and interface methods are
// opaque, a closure passed elsewhere contributes ordering edges but not
// caller-ward blocking facts, so absent evidence makes false negatives,
// not noise.
//
// A select containing a default clause cannot park and is excluded from
// BlockOps; every channel send is recorded, whatever the channel's buffer.
// Cond.Wait while exactly its one lock is held is recorded but marked
// Exempt — that is the documented contract of Cond, and the primitive
// releases the lock while parked.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// LockAcq is the evidence that calling a function may acquire one lock.
type LockAcq struct {
	// Write: some reachable acquisition is a Lock (not just RLock).
	Write bool
	// Via is a human-readable sample chain down to the acquiring call.
	Via string
}

// LockEdge is one acquisition-order edge: Held was held at a point where
// Acq was (or could transitively be) acquired.
type LockEdge struct {
	Held string
	Acq  string
	Via  string

	// The rest places the edge in the body that made it, for lockorder's
	// reports, which read it on the package's own edges only.
	// Pos is the acquisition, or the call whose callee acquires Acq
	// (Callee, nil for a direct acquisition); HeldWrite and AcqWrite are
	// the two modes, which name a re-acquisition's deadlock.
	Pos                 token.Pos
	Callee              *types.Func
	HeldWrite, AcqWrite bool
}

// HeldLock is one entry of a held-set snapshot.
type HeldLock struct {
	ID    string
	Write bool
	// Text is the receiver's source text at the acquisition ("s.mu");
	// releases match on it.
	Text string
	// Pos is where the lock was acquired.
	Pos token.Pos
	// Deferred: a `defer …Unlock()` naming this lock, or a deferred
	// closure that unlocks it, has been registered, so it stays held to
	// the end of the body but every exit releases it.
	Deferred bool
}

// LockAcquire is one direct Lock/RLock call with the held-set at entry.
type LockAcquire struct {
	ID    string
	Write bool
	Held  []HeldLock
	Pos   token.Pos
	// Caller: the event runs as part of the declaring function's own
	// execution (not inside a spawned or escaping closure), so it
	// contributes to the caller-visible AcquiresLocks fact.
	Caller bool
}

// LockCall is one statically resolved call with the held-set at entry
// (possibly empty — every resolved call is recorded, so the fixpoint can
// propagate callee facts without consulting the context-blind call graph,
// which would fold spawned closures' calls into the spawner).
type LockCall struct {
	Callee *types.Func
	Held   []HeldLock
	Pos    token.Pos
	Caller bool
}

// BlockOp is one potentially-parking operation (channel send/receive,
// select with no default, range over channel, or a parking call
// classifyCall knows) with the held-set at entry.
type BlockOp struct {
	Desc string
	Held []HeldLock
	Pos  token.Pos
	// Exempt: structurally blocking but sanctioned by the primitive's
	// contract (Cond.Wait holding exactly its one lock, which Wait
	// releases while parked). Exempt ops still set MayPark — the
	// goroutine does park — but lockblock does not report them.
	Exempt bool
	Caller bool
}

// LockExit is one way out of a body — a return statement, or the closing
// brace when control can reach it — taken with locks held. Body is the
// function or literal body being left: only locks acquired inside it are
// its to release (an immediately-invoked literal inherits its caller's).
type LockExit struct {
	Pos  token.Pos
	Body *ast.BlockStmt
	Held []HeldLock
}

// lockFlow scans every declared function for lock events and runs the
// AcquiresLocks/MayPark/LockEdges fixpoint. Runs after the main summary
// fixpoint, so imported facts are already merged into pf.All.
func lockFlow(pkg *Package, pf *PackageFacts) {
	// Phase 1: per-body event scan + direct facts.
	for _, ff := range pf.Own {
		sc := &lockScan{pkg: pkg, fn: ff.Fn}
		sc.body(ff.Decl.Type, ff.Decl.Body, nil, true)
		ff.LockAcquires, ff.LockCalls, ff.BlockOps, ff.LockExits = sc.acquires, sc.calls, sc.blocks, sc.exits

		s := &ff.Summary
		for _, acq := range ff.LockAcquires {
			if acq.Caller {
				addAcq(s, acq.ID, acq.Write, fmt.Sprintf("%s acquires %s (%s)",
					funcLabel(ff.Fn), acq.ID, posLabel(pkg, acq.Pos)))
			}
		}
		for _, op := range ff.BlockOps {
			if op.Caller && !s.MayPark {
				s.MayPark = true
				s.ParkVia = fmt.Sprintf("%s (%s)", op.Desc, posLabel(pkg, op.Pos))
			}
		}
	}

	// Phase 2: caller-ward fixpoint over AcquiresLocks and MayPark.
	// Only Caller events propagate — a closure handed elsewhere may never
	// run on this goroutine. Via is set at the first flip, keeping the
	// sample chains finite and deterministic.
	pf.propagate(func(ff *FuncFacts) bool {
		s, changed := &ff.Summary, false
		for _, lc := range ff.LockCalls {
			if !lc.Caller {
				continue
			}
			cal := summaryOf(pf, lc.Callee)
			if cal.MayPark && !s.MayPark {
				s.MayPark = true
				s.ParkVia = "calls " + funcLabel(lc.Callee) + ": " + cal.ParkVia
				changed = true
			}
			for _, id := range SortedKeys(cal.AcquiresLocks) {
				acq := cal.AcquiresLocks[id]
				if have, ok := s.AcquiresLocks[id]; !ok || (acq.Write && !have.Write) {
					addAcq(s, id, acq.Write, "calls "+funcLabel(lc.Callee)+": "+acq.Via)
					changed = true
				}
			}
		}
		return changed
	})

	// Phase 3: acquisition-order edges, direct and call-induced, using the
	// converged summaries, each pair once at its first position. A call or
	// acquisition re-acquiring a held lock is the lockorder analyzer's
	// self-deadlock case, not an edge: every one goes to Reacquires.
	for _, ff := range pf.Own {
		seen := make(map[[2]string]bool)
		add := func(e LockEdge) {
			key := [2]string{e.Held, e.Acq}
			switch {
			case e.Held == e.Acq:
				ff.Reacquires = append(ff.Reacquires, e)
			case !seen[key]:
				seen[key] = true
				ff.Summary.LockEdges = append(ff.Summary.LockEdges, e)
			}
		}
		for _, acq := range ff.LockAcquires {
			for _, h := range acq.Held {
				add(LockEdge{Held: h.ID, Acq: acq.ID, Pos: acq.Pos, HeldWrite: h.Write, AcqWrite: acq.Write,
					Via: fmt.Sprintf("%s acquires %s while holding %s (%s)",
						funcLabel(ff.Fn), acq.ID, h.ID, posLabel(pkg, acq.Pos))})
			}
		}
		for _, lc := range ff.LockCalls {
			if len(lc.Held) == 0 {
				continue
			}
			cal := summaryOf(pf, lc.Callee)
			for _, id := range SortedKeys(cal.AcquiresLocks) {
				acq := cal.AcquiresLocks[id]
				for _, h := range lc.Held {
					add(LockEdge{Held: h.ID, Acq: id, Pos: lc.Pos, Callee: lc.Callee, HeldWrite: h.Write, AcqWrite: acq.Write,
						Via: fmt.Sprintf("%s holds %s and calls %s (%s): %s",
							funcLabel(ff.Fn), h.ID, funcLabel(lc.Callee), posLabel(pkg, lc.Pos), acq.Via)})
				}
			}
		}
	}
}

// addAcq merges one acquisition into the summary's AcquiresLocks map.
func addAcq(s *FuncSummary, id string, write bool, via string) {
	if s.AcquiresLocks == nil {
		s.AcquiresLocks = make(map[string]LockAcq)
	}
	have, ok := s.AcquiresLocks[id]
	if !ok {
		s.AcquiresLocks[id] = LockAcq{Write: write, Via: clampVia(via)}
		return
	}
	if write && !have.Write {
		have.Write = true
		s.AcquiresLocks[id] = have
	}
}

// clampVia bounds a sample chain so deeply nested call paths cannot bloat
// the facts file.
func clampVia(via string) string {
	const max = 300
	if len(via) <= max {
		return via
	}
	return via[:max] + "…"
}

// funcLabel renders a function compactly for lock IDs and via chains:
// package-name qualified, "(*nameserver.Server).Bump" / "cluster.Join".
func funcLabel(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return "(" + typeLabel(sig.Recv().Type()) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// typeLabel renders a type compactly (package-qualified by name, not full
// path).
func typeLabel(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// posLabel renders a position as "file.go:NN".
func posLabel(pkg *Package, pos token.Pos) string {
	posn := pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line)
}

// lockScan walks one function body in statement order tracking held locks
// and records the four event streams.
type lockScan struct {
	pkg *Package
	fn  *types.Func

	// cur is the function or literal body being scanned, for LockExits.
	cur *ast.BlockStmt

	acquires []LockAcquire
	calls    []LockCall
	blocks   []BlockOp
	exits    []LockExit
}

// body scans one function or literal body entered with the given held-set,
// and records the fall-off-the-end exit when the closing brace is
// reachable (a body with results must end in a terminating statement).
func (sc *lockScan) body(typ *ast.FuncType, body *ast.BlockStmt, held []HeldLock, caller bool) {
	if body == nil {
		return
	}
	outer := sc.cur
	sc.cur = body
	held = sc.block(body.List, held, caller)
	if typ.Results.NumFields() == 0 && fallsOff(body) {
		sc.exit(body.Rbrace, held)
	}
	sc.cur = outer
}

// exit records leaving the current body at pos with held still held.
func (sc *lockScan) exit(pos token.Pos, held []HeldLock) {
	if len(held) > 0 {
		sc.exits = append(sc.exits, LockExit{Pos: pos, Body: sc.cur, Held: copyHeldLocks(held)})
	}
}

// fallsOff reports whether control can reach the closing brace: the body
// is empty or its last statement is not a terminating return/goto, panic
// call, or condition-less for loop.
func fallsOff(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return true
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return false
	case *ast.ForStmt:
		return last.Cond != nil
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return false
			}
		}
	}
	return true
}

// block scans a statement list, threading the held-set through. caller
// marks whether this code runs as part of the declaring function's own
// execution (false inside spawned or escaping closures).
func (sc *lockScan) block(stmts []ast.Stmt, held []HeldLock, caller bool) []HeldLock {
	for _, stmt := range stmts {
		held = sc.stmt(stmt, held, caller)
	}
	return held
}

func (sc *lockScan) stmt(stmt ast.Stmt, held []HeldLock, caller bool) []HeldLock {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if ev, ok := sc.lockEvent(st.X); ok {
			if ev.acquire {
				sc.acquires = append(sc.acquires, LockAcquire{
					ID: ev.id, Write: ev.write, Held: copyHeldLocks(held), Pos: st.X.Pos(), Caller: caller,
				})
				return append(held, HeldLock{ID: ev.id, Write: ev.write, Text: ev.text, Pos: st.X.Pos()})
			}
			if i := heldIndex(held, ev.text); i >= 0 {
				return append(held[:i:i], held[i+1:]...)
			}
			return held
		}
		sc.expr(st.X, held, caller)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to the end of the body, and
		// releases it on every way out; so does a deferred closure that
		// unlocks it. The closure runs on this goroutine (caller=true) but
		// at return time, when the held-set is unknowable here — scan it
		// with an empty one (false-negative bias). Other deferred calls are
		// approximated with the current held-set.
		if sc.deferRelease(st.Call, held) {
			return held
		}
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					sc.deferRelease(e, held)
				}
				_, nested := n.(*ast.FuncLit)
				return !nested
			})
			sc.body(lit.Type, lit.Body, nil, caller)
			for _, arg := range st.Call.Args {
				sc.expr(arg, held, caller)
			}
			return held
		}
		sc.expr(st.Call, held, caller)
	case *ast.GoStmt:
		// The spawned goroutine starts with nothing held and its parking
		// does not park the spawner: scan the callee/literal with an
		// empty, non-caller state, the arguments with the current one.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			sc.body(lit.Type, lit.Body, nil, false)
		}
		for _, arg := range st.Call.Args {
			sc.expr(arg, held, caller)
		}
	case *ast.SendStmt:
		sc.expr(st.Chan, held, caller)
		sc.expr(st.Value, held, caller)
		sc.blocks = append(sc.blocks, BlockOp{
			Desc: "channel send", Held: copyHeldLocks(held), Pos: st.Pos(), Caller: caller,
		})
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			sc.expr(rhs, held, caller)
		}
		for _, lhs := range st.Lhs {
			sc.expr(lhs, held, caller)
		}
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				sc.expr(e, held, caller)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			sc.expr(r, held, caller)
		}
		sc.exit(st.Pos(), held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = sc.stmt(st.Init, held, caller)
		}
		sc.expr(st.Cond, held, caller)
		sc.block(st.Body.List, copyHeldLocks(held), caller)
		if st.Else != nil {
			sc.stmt(st.Else, copyHeldLocks(held), caller)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held = sc.stmt(st.Init, held, caller)
		}
		if st.Cond != nil {
			sc.expr(st.Cond, held, caller)
		}
		sc.block(st.Body.List, copyHeldLocks(held), caller)
	case *ast.RangeStmt:
		sc.expr(st.X, held, caller)
		if t := sc.pkg.Info.TypeOf(st.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				sc.blocks = append(sc.blocks, BlockOp{
					Desc: "range over channel", Held: copyHeldLocks(held), Pos: st.Pos(), Caller: caller,
				})
			}
		}
		sc.block(st.Body.List, copyHeldLocks(held), caller)
	case *ast.BlockStmt:
		held = sc.block(st.List, held, caller)
	case *ast.SelectStmt:
		sc.selectOp(st, held, caller)
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = sc.stmt(st.Init, held, caller)
		}
		sc.expr(st.Tag, held, caller)
		for _, clause := range st.Body.List {
			if c, ok := clause.(*ast.CaseClause); ok {
				for _, e := range c.List {
					sc.expr(e, held, caller)
				}
				sc.block(c.Body, copyHeldLocks(held), caller)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = sc.stmt(st.Init, held, caller)
		}
		sc.stmt(st.Assign, copyHeldLocks(held), caller)
		for _, clause := range st.Body.List {
			if c, ok := clause.(*ast.CaseClause); ok {
				sc.block(c.Body, copyHeldLocks(held), caller)
			}
		}
	case *ast.LabeledStmt:
		held = sc.stmt(st.Stmt, held, caller)
	}
	return held
}

// deferRelease reports whether e, deferred, is an Unlock or RUnlock, and
// marks the hold it releases Deferred.
func (sc *lockScan) deferRelease(e ast.Expr, held []HeldLock) bool {
	ev, ok := sc.lockEvent(e)
	if !ok || ev.acquire {
		return false
	}
	if i := heldIndex(held, ev.text); i >= 0 {
		held[i].Deferred = true
	}
	return true
}

// expr records call and blocking events inside e. Nested function literals
// are scanned by spawn context: immediately-invoked literals inherit the
// current held-set, everything else (stored, passed, returned) runs with
// an empty, non-caller state.
func (sc *lockScan) expr(e ast.Expr, held []HeldLock, caller bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			sc.body(node.Type, node.Body, nil, false)
			return false
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				sc.blocks = append(sc.blocks, BlockOp{
					Desc: "channel receive", Held: copyHeldLocks(held), Pos: node.Pos(), Caller: caller,
				})
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(node.Fun).(*ast.FuncLit); ok {
				// Immediately invoked: inline code under the current state.
				sc.body(lit.Type, lit.Body, copyHeldLocks(held), caller)
				for _, arg := range node.Args {
					sc.expr(arg, held, caller)
				}
				return false
			}
			sc.callOp(node, held, caller)
		}
		return true
	})
}

// callOp records one resolved call: as a BlockOp when classifyCall says
// it can park, and always as a LockCall, for fact propagation and, when locks
// are held, edge building (a module type's conn-shaped Write or a
// dialReplica has a summary of its own besides).
func (sc *lockScan) callOp(call *ast.CallExpr, held []HeldLock, caller bool) {
	callee := CalleeFunc(sc.pkg.Info, call)
	if callee == nil {
		return
	}
	snap := copyHeldLocks(held) // snapshots are read-only: the two events share one
	if kind, desc := classifyCall(callee); kind.parks() {
		// Cond.Wait releases its cond's lock while parked; holding exactly
		// one lock at that point is the primitive's contract. Any extra
		// lock is held across the park and is a real hazard.
		sc.blocks = append(sc.blocks, BlockOp{
			Desc: desc, Held: snap, Pos: call.Pos(),
			Exempt: kind == parkCond && len(held) <= 1, Caller: caller,
		})
	}
	sc.calls = append(sc.calls, LockCall{Callee: callee, Held: snap, Pos: call.Pos(), Caller: caller})
}

// selectOp records a select statement: one with a default clause cannot
// park and contributes no event; one without is a blocking rendezvous.
// Case bodies are scanned with held-set copies either way; the comm
// expressions themselves are part of the select, not standalone ops.
func (sc *lockScan) selectOp(st *ast.SelectStmt, held []HeldLock, caller bool) {
	hasDefault := false
	for _, clause := range st.Body.List {
		if c, ok := clause.(*ast.CommClause); ok && c.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		sc.blocks = append(sc.blocks, BlockOp{
			Desc: "select with no default", Held: copyHeldLocks(held), Pos: st.Pos(), Caller: caller,
		})
	}
	for _, clause := range st.Body.List {
		c, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		// Scan value expressions inside the comm op for nested calls, but
		// suppress the comm op's own send/receive event.
		if c.Comm != nil {
			ast.Inspect(c.Comm, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					sc.callOp(call, held, caller)
				}
				return true
			})
		}
		sc.block(c.Body, copyHeldLocks(held), caller)
	}
}

// lockEv is one classified Lock/RLock/Unlock/RUnlock call.
type lockEv struct {
	id      string // module-wide identity, see lockID
	text    string // receiver source text, what releases match on
	write   bool
	acquire bool
}

// lockEvent classifies e as a mutex operation and resolves the lock's
// identity. TryLock variants never block and are not acquisition-order
// evidence either way, so they are not tracked.
func (sc *lockScan) lockEvent(e ast.Expr) (lockEv, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return lockEv{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !IsMutexOp(sc.pkg.Info, sel) {
		return lockEv{}, false
	}
	return lockEv{
		id:      sc.lockID(sel.X),
		text:    ExprText(sel.X),
		write:   sel.Sel.Name == "Lock" || sel.Sel.Name == "Unlock",
		acquire: sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock",
	}, true
}

// IsMutexOp reports whether sel selects Lock, RLock, Unlock or RUnlock of a
// sync.Mutex or sync.RWMutex — called or taken as a method value.
func IsMutexOp(info *types.Info, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && (IsNamedType(recv.Type(), "sync", "Mutex") || IsNamedType(recv.Type(), "sync", "RWMutex"))
}

// ExprText renders a selector chain like c.mu as source text, for matching
// and messages; shapes it does not spell out render as "?".
func ExprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return ExprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return ExprText(x.X) + "[…]"
	case *ast.StarExpr:
		return ExprText(x.X)
	case *ast.UnaryExpr:
		return ExprText(x.X)
	}
	return "?"
}

// lockID resolves a mutex expression to its module-wide identity: the
// nearest enclosing named type plus the field path ("(*nameserver.
// Server).mu"), a package-level variable ("nameserver.poolMu"), or a
// function-qualified local. An embedded mutex reached by promotion
// ("s.Lock()" with S embedding sync.Mutex) resolves through the named
// type of the receiver expression.
func (sc *lockScan) lockID(e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		// Package-qualified var: pkg.Mu.
		if base, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if pn, ok := sc.pkg.Info.Uses[base].(*types.PkgName); ok {
				return pn.Imported().Name() + "." + x.Sel.Name
			}
		}
		if id := namedBaseID(sc.pkg.Info, x.X); id != "" {
			return id + "." + x.Sel.Name
		}
		return sc.lockID(x.X) + "." + x.Sel.Name
	case *ast.Ident:
		if v, ok := sc.pkg.Info.Uses[x].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
			// A named type embedding the mutex, locked via promotion.
			if id := namedBaseID(sc.pkg.Info, x); id != "" {
				return id + ".Mutex"
			}
		}
		return funcLabel(sc.fn) + " local " + x.Name
	case *ast.StarExpr:
		return sc.lockID(x.X)
	case *ast.UnaryExpr:
		return sc.lockID(x.X)
	case *ast.IndexExpr:
		if id := namedBaseID(sc.pkg.Info, x); id != "" {
			return id + ".Mutex"
		}
		return sc.lockID(x.X) + "[i]"
	}
	if id := namedBaseID(sc.pkg.Info, e); id != "" {
		return id + ".Mutex"
	}
	return funcLabel(sc.fn) + " anonymous mutex"
}

// namedBaseID renders the named type of e (after pointer indirection) as a
// lock-identity base, or "" when e's type is unnamed or is itself one of
// the sync mutex types (then the caller keeps walking the selector chain
// instead, so "s.mu" keys on Server, not on sync.Mutex).
func namedBaseID(info *types.Info, e ast.Expr) string {
	named := NamedOf(info.TypeOf(e))
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	if IsNamedType(named, "sync", "Mutex") || IsNamedType(named, "sync", "RWMutex") {
		return ""
	}
	return "(*" + named.Obj().Pkg().Name() + "." + named.Obj().Name() + ")"
}

// heldIndex finds the most recent hold whose receiver text is text, or -1.
func heldIndex(held []HeldLock, text string) int {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].Text == text {
			return i
		}
	}
	return -1
}

func copyHeldLocks(held []HeldLock) []HeldLock {
	if len(held) == 0 {
		return nil
	}
	return append([]HeldLock(nil), held...)
}
