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
//     and the calls parkingCall catalogues (conn Read/Write, Dial*,
//     time.Sleep, WaitGroup.Wait, Cond.Wait);
//   - LockExits: every return, and every reachable closing brace, of the
//     body and of each literal nested in it, reached with a lock held.
//
// A fixpoint then folds callee facts caller-ward, exactly like the alloc
// and deadline flows: AcquiresLocks is the transitive set of locks a call
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
// Structural non-blocking proofs are excluded from BlockOps entirely: a
// select containing a default clause cannot park, and a send on a
// function-local channel made with a constant capacity that provably
// exceeds the body's send count (and which never leaks to a callee) is a
// handoff, not a rendezvous. Cond.Wait while exactly its one lock is held
// is recorded but marked Exempt — that is the documented contract of
// Cond, and the primitive releases the lock while parked.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// LockAcq is the serialized evidence that calling a function may acquire
// one lock.
type LockAcq struct {
	// Write: some reachable acquisition is a Lock (not just RLock).
	Write bool `json:",omitempty"`
	// Via is a human-readable sample chain down to the acquiring call.
	Via string `json:",omitempty"`
}

// LockEdge is one serialized acquisition-order edge: Held was held at a
// point where Acq was (or could transitively be) acquired.
type LockEdge struct {
	Held string
	Acq  string
	Via  string `json:",omitempty"`
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
	// Deferred: a `defer …Unlock()` naming this lock has been registered,
	// so it stays held to the end of the body but every exit releases it.
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
// select with no default, range over channel, or a call parkingCall
// recognises) with the held-set at entry.
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
		sc.chanLocal = localBufferedChans(pkg, ff.Decl)
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
	for changed := true; changed; {
		changed = false
		for _, ff := range pf.Own {
			s := &ff.Summary
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
				for _, id := range sortedAcqKeys(cal.AcquiresLocks) {
					acq := cal.AcquiresLocks[id]
					if have, ok := s.AcquiresLocks[id]; !ok || (acq.Write && !have.Write) {
						addAcq(s, id, acq.Write, "calls "+funcLabel(lc.Callee)+": "+acq.Via)
						changed = true
					}
				}
			}
		}
	}

	// Phase 3: acquisition-order edges, direct and call-induced, using the
	// converged summaries. A call re-acquiring a held lock is the
	// lockorder analyzer's self-deadlock case, not an edge.
	for _, ff := range pf.Own {
		seen := make(map[[2]string]bool)
		add := func(held, acq, via string) {
			key := [2]string{held, acq}
			if held == acq || seen[key] {
				return
			}
			seen[key] = true
			ff.Summary.LockEdges = append(ff.Summary.LockEdges, LockEdge{Held: held, Acq: acq, Via: via})
		}
		for _, acq := range ff.LockAcquires {
			for _, h := range acq.Held {
				add(h.ID, acq.ID, fmt.Sprintf("%s acquires %s while holding %s (%s)",
					funcLabel(ff.Fn), acq.ID, h.ID, posLabel(pkg, acq.Pos)))
			}
		}
		for _, lc := range ff.LockCalls {
			if len(lc.Held) == 0 {
				continue
			}
			cal := summaryOf(pf, lc.Callee)
			for _, id := range sortedAcqKeys(cal.AcquiresLocks) {
				for _, h := range lc.Held {
					add(h.ID, id, fmt.Sprintf("%s holds %s and calls %s (%s): %s",
						funcLabel(ff.Fn), h.ID, funcLabel(lc.Callee), posLabel(pkg, lc.Pos),
						cal.AcquiresLocks[id].Via))
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

// sortedAcqKeys returns the map's keys in sorted order so fact propagation
// and edge emission are deterministic (detrand would want nothing less).
func sortedAcqKeys(m map[string]LockAcq) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
	// chanLocal maps channel objects provably unable to block a send:
	// function-local, constant capacity ≥ the body's static send count,
	// never leaked (see localBufferedChans).
	chanLocal map[types.Object]bool

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
		// releases it on every way out. A deferred closure runs on this
		// goroutine (caller=true) but at return time, when the held-set is
		// unknowable here — scan it with an empty one (false-negative
		// bias). Other deferred calls are approximated with the current
		// held-set.
		if ev, ok := sc.lockEvent(st.Call); ok && !ev.acquire {
			if i := heldIndex(held, ev.text); i >= 0 {
				held[i].Deferred = true
			}
			return held
		}
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
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
		sc.sendOp(st, held, caller)
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
		if t := typeOf(sc.pkg.Info, st.X); t != nil {
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

// callOp records one resolved call: as a BlockOp when parkingCall says it
// can park, and always as a LockCall, for fact propagation and, when locks
// are held, edge building (a module type's conn-shaped Write or a
// dialReplica has a summary of its own besides).
func (sc *lockScan) callOp(call *ast.CallExpr, held []HeldLock, caller bool) {
	callee := CalleeFunc(sc.pkg.Info, call)
	if callee == nil {
		return
	}
	snap := copyHeldLocks(held) // snapshots are read-only: the two events share one
	if kind, desc := parkingCall(callee); kind != noPark {
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

// sendOp records a channel send unless the channel is a provably
// non-blocking local handoff.
func (sc *lockScan) sendOp(st *ast.SendStmt, held []HeldLock, caller bool) {
	if id, ok := ast.Unparen(st.Chan).(*ast.Ident); ok {
		if obj := sc.pkg.Info.Uses[id]; obj != nil && sc.chanLocal[obj] {
			return
		}
	}
	sc.blocks = append(sc.blocks, BlockOp{
		Desc: "channel send", Held: copyHeldLocks(held), Pos: st.Pos(), Caller: caller,
	})
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
	t := typeOf(info, e)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if IsNamedType(t, "sync", "Mutex") || IsNamedType(t, "sync", "RWMutex") {
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

// localBufferedChans finds channels a send can provably never block on:
// declared in this body, made with a constant capacity of at least the
// body's static send count, and never leaked outside the body (the only
// allowed uses are send, receive, range, close, len, and cap — passing
// the channel to any other call, storing it, or returning it forfeits the
// proof, since an unknown producer could fill the buffer).
func localBufferedChans(pkg *Package, decl *ast.FuncDecl) map[types.Object]bool {
	if decl.Body == nil {
		return nil
	}
	capOf := make(map[types.Object]int64)
	sends := make(map[types.Object]int64)
	leaked := make(map[types.Object]bool)

	objOf := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := pkg.Info.Uses[id]; obj != nil {
			return obj
		}
		return pkg.Info.Defs[id]
	}
	// Pass 1: constant-capacity makes assigned to locals.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
				continue
			}
			t := typeOf(pkg.Info, call)
			if t == nil {
				continue
			}
			if _, isChan := t.Underlying().(*types.Chan); !isChan {
				continue
			}
			tv, ok := pkg.Info.Types[call.Args[1]]
			if !ok || tv.Value == nil {
				continue
			}
			var capVal int64
			if _, err := fmt.Sscan(tv.Value.ExactString(), &capVal); err != nil || capVal < 1 {
				continue
			}
			if obj := objOf(assign.Lhs[i]); obj != nil {
				if _, dup := capOf[obj]; dup {
					leaked[obj] = true // re-made: give up
				}
				capOf[obj] = capVal
			}
		}
		return true
	})
	if len(capOf) == 0 {
		return nil
	}
	// Pass 2: classify every other use.
	walkStack(decl.Body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			if obj = pkg.Info.Defs[id]; obj == nil {
				return
			}
		}
		if _, tracked := capOf[obj]; !tracked || len(stack) == 0 {
			return
		}
		switch parent := stack[len(stack)-1].(type) {
		case *ast.SendStmt:
			if ast.Unparen(parent.Chan) == ast.Expr(id) {
				sends[obj]++
			} else {
				leaked[obj] = true // the channel itself sent as a value
			}
		case *ast.UnaryExpr:
			if parent.Op != token.ARROW {
				leaked[obj] = true
			}
		case *ast.RangeStmt:
			if ast.Unparen(parent.X) != ast.Expr(id) {
				leaked[obj] = true
			}
		case *ast.CallExpr:
			name := ""
			if fid, ok := ast.Unparen(parent.Fun).(*ast.Ident); ok {
				name = fid.Name
			}
			switch name {
			case "close", "len", "cap":
				// Consuming uses: fine.
			default:
				leaked[obj] = true
			}
		case *ast.AssignStmt:
			// LHS of its own make is pass 1; anything else (reassigned,
			// copied to another variable, stored) forfeits the proof.
			isMakeLHS := false
			for i, lhs := range parent.Lhs {
				if ast.Unparen(lhs) == ast.Expr(id) && i < len(parent.Rhs) {
					if call, ok := ast.Unparen(parent.Rhs[i]).(*ast.CallExpr); ok {
						if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "make" {
							isMakeLHS = true
						}
					}
				}
			}
			if !isMakeLHS {
				leaked[obj] = true
			}
		case *ast.CommClause:
			// select case `<-ch` handled via UnaryExpr; `ch <- v` via SendStmt.
		default:
			leaked[obj] = true
		}
	})
	ok := make(map[types.Object]bool)
	for obj, c := range capOf {
		if !leaked[obj] && sends[obj] <= c {
			ok[obj] = true
		}
	}
	if len(ok) == 0 {
		return nil
	}
	return ok
}
