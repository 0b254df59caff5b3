package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deadlineFlow computes, per function, the lexical deadline events (direct
// Set*Deadline calls and calls to functions whose summary SetsDeadline),
// marks each wire-I/O atom guarded or not, applies the idle-read exemption,
// exonerates callee functions whose every call site is guarded, and runs
// the UnguardedIO fixpoint. The result lands in each FuncFacts' Events and
// Summary.UnguardedIO — everything conndeadline v2 reports from.
func deadlineFlow(pkg *Package, pf *PackageFacts, obs map[*types.Func]*atoms) {
	// guardPos holds, per function, every position after which I/O is
	// considered deadline-guarded.
	guardPos := make(map[*types.Func][]token.Pos, len(pf.Own))
	for _, ff := range pf.Own {
		a := obs[ff.Fn]
		pos := append([]token.Pos(nil), a.deadlinePos...)
		for _, cs := range a.calls {
			if summaryOf(pf, cs.Callee).SetsDeadline {
				pos = append(pos, cs.Pos)
			}
		}
		guardPos[ff.Fn] = pos
	}
	guarded := func(fn *types.Func, pos token.Pos) bool {
		for _, g := range guardPos[fn] {
			if g < pos {
				return true
			}
		}
		return false
	}

	// Exoneration: an unexported function that is never used as a value
	// and whose every same-package call site is guarded has discharged
	// its deadline obligation onto its callers — and they have met it.
	valueRef := valueReferences(pkg, pf)
	sites := make(map[*types.Func][]bool) // callee -> guardedness of each call site
	for _, ff := range pf.Own {
		for _, cs := range obs[ff.Fn].calls {
			if pf.byFn[cs.Callee] != nil {
				sites[cs.Callee] = append(sites[cs.Callee], guarded(ff.Fn, cs.Pos))
			}
		}
	}
	for _, ff := range pf.Own {
		if ff.Fn.Exported() || valueRef[ff.Fn] {
			continue
		}
		ss := sites[ff.Fn]
		if len(ss) == 0 {
			continue
		}
		ok := true
		for _, g := range ss {
			ok = ok && g
		}
		ff.Exonerated = ok
	}

	// Direct problems: unguarded, non-idle-exempt I/O atoms.
	directProblem := make(map[*types.Func]bool, len(pf.Own))
	for _, ff := range pf.Own {
		for _, io := range obs[ff.Fn].ios {
			if !guarded(ff.Fn, io.pos) && !idleExempt(pkg, pf, ff, io) {
				directProblem[ff.Fn] = true
				break
			}
		}
	}

	// UnguardedIO fixpoint: a function has it if it is not exonerated and
	// either does unguarded I/O itself or makes an unguarded call to a
	// function that has it.
	for changed := true; changed; {
		changed = false
		for _, ff := range pf.Own {
			if ff.Summary.UnguardedIO || ff.Exonerated {
				continue
			}
			bad := directProblem[ff.Fn]
			if !bad {
				for _, cs := range obs[ff.Fn].calls {
					if summaryOf(pf, cs.Callee).UnguardedIO && !guarded(ff.Fn, cs.Pos) {
						bad = true
						break
					}
				}
			}
			if bad {
				ff.Summary.UnguardedIO = true
				changed = true
			}
		}
	}

	// Final event lists for reporting: every unguarded, non-exempt atom
	// and every unguarded call to an UnguardedIO callee, in lexical order.
	// Exonerated functions keep an empty list — their callers answered
	// for them.
	for _, ff := range pf.Own {
		if ff.Exonerated {
			continue
		}
		for _, io := range obs[ff.Fn].ios {
			if !guarded(ff.Fn, io.pos) && !idleExempt(pkg, pf, ff, io) {
				ff.Events = append(ff.Events, WireEvent{Pos: io.pos, Desc: io.desc})
			}
		}
		for _, cs := range obs[ff.Fn].calls {
			if summaryOf(pf, cs.Callee).UnguardedIO && !guarded(ff.Fn, cs.Pos) {
				ff.Events = append(ff.Events, WireEvent{Pos: cs.Pos, Desc: "call", Callee: cs.Callee})
			}
		}
	}
}

// summaryOf looks a callee up in the package's own facts first (they may
// still be settling during a fixpoint), then the imported table.
func summaryOf(pf *PackageFacts, callee *types.Func) FuncSummary {
	if ff := pf.byFn[callee]; ff != nil {
		return ff.Summary
	}
	return pf.All[FuncKey(callee)]
}

// valueReferences finds package functions that are referenced as values
// (stored, passed, deferred through a variable, …) rather than only
// called. Such functions can be invoked from anywhere, so call-site
// exoneration does not apply to them.
func valueReferences(pkg *Package, pf *PackageFacts) map[*types.Func]bool {
	callIdents := make(map[*ast.Ident]bool)
	refs := make(map[*types.Func]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					callIdents[fun] = true
				case *ast.SelectorExpr:
					callIdents[fun.Sel] = true
				}
			}
			return true
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || callIdents[id] {
				return true
			}
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && pf.byFn[fn] != nil {
				refs[fn] = true
			}
			return true
		})
	}
	return refs
}

// idleExempt reports whether io is an idle read: a decode/read inside an
// unconditional for-loop of a method whose receiver type's Close
// (transitively, same package) closes a conn-shaped value — or the read an
// io.Reader adapter on such a type forwards (see forwardsRead), which is
// the same idle read one call further down: the loop's decoder fills
// through it. Such a read blocks until the peer speaks or the owner's
// Close closes the conn under it — a deadline would turn idle connections
// into spurious errors.
func idleExempt(pkg *Package, pf *PackageFacts, ff *FuncFacts, io ioAtom) bool {
	if !io.read || ff.Decl.Recv == nil || len(ff.Decl.Recv.List) == 0 {
		return false
	}
	if !inBareLoop(ff.Decl.Body, io.pos) && !forwardsRead(pkg, ff, io.pos) {
		return false
	}
	recv := pkg.Info.Defs[recvIdent(ff.Decl)]
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return closeClosesConn(pkg, pf, named)
}

// forwardsRead reports whether the conn read at pos is an io.Reader
// adapter passing its own call on: ff is a `Read([]byte) (int, error)`
// method and the read hands that same slice to the conn. Whatever the
// method does around the read (flush, count, flag), it blocks exactly as
// long as the conn does, for a caller that asked to read.
func forwardsRead(pkg *Package, ff *FuncFacts, pos token.Pos) bool {
	sig := ff.Fn.Type().(*types.Signature)
	if ff.Fn.Name() != "Read" || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	buf := sig.Params().At(0)
	if elem, ok := buf.Type().(*types.Slice); !ok || !types.Identical(elem.Elem(), types.Typ[types.Byte]) {
		return false
	}
	if !types.Identical(sig.Results().At(0).Type(), types.Typ[types.Int]) ||
		!types.Identical(sig.Results().At(1).Type(), types.Universe.Lookup("error").Type()) {
		return false
	}
	forwards := false
	ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() != pos {
			return !forwards
		}
		if len(call.Args) == 1 {
			arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			forwards = ok && pkg.Info.Uses[arg] == buf
		}
		return false
	})
	return forwards
}

// recvIdent returns the receiver's name identifier, or nil for `func (T)`.
func recvIdent(decl *ast.FuncDecl) *ast.Ident {
	if len(decl.Recv.List[0].Names) == 0 {
		return nil
	}
	return decl.Recv.List[0].Names[0]
}

// inBareLoop reports whether pos sits inside a `for { … }` loop (no
// condition, no post statement) within body.
func inBareLoop(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if ok && loop.Cond == nil && loop.Post == nil && loop.Init == nil &&
			loop.Body.Pos() <= pos && pos < loop.Body.End() {
			found = true
			return false
		}
		return true
	})
	return found
}

// closeClosesConn reports whether the named type has a Close method in this
// package that — directly or through same-package calls — calls Close on a
// conn-shaped value.
func closeClosesConn(pkg *Package, pf *PackageFacts, named *types.Named) bool {
	var closeFn *types.Func
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == "Close" {
			closeFn = m
			break
		}
	}
	if closeFn == nil || pf.byFn[closeFn] == nil {
		return false
	}
	seen := make(map[*types.Func]bool)
	var reaches func(fn *types.Func) bool
	reaches = func(fn *types.Func) bool {
		if seen[fn] {
			return false
		}
		seen[fn] = true
		ff := pf.byFn[fn]
		if ff == nil {
			return false
		}
		found := false
		ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := CalleeFunc(pkg.Info, call)
			if callee == nil || callee.Name() != "Close" {
				return true
			}
			recv := callee.Type().(*types.Signature).Recv()
			if recv != nil && HasMethods(recv.Type(), "Read", "Write", "SetDeadline") {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
		for _, cs := range pf.Graph.Calls[fn] {
			if pf.byFn[cs.Callee] != nil && reaches(cs.Callee) {
				return true
			}
		}
		return false
	}
	return reaches(closeFn)
}
