package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deadlineFlow computes, per function, the lexical deadline events (direct
// Set*Deadline calls and calls to functions whose summary SetsDeadline),
// marks each wire-I/O call guarded or not, applies the idle-read
// exemption, and runs the UnguardedIO fixpoint. A function answers for
// its own I/O whoever calls it. The result lands in each FuncFacts'
// Events and Summary.UnguardedIO — everything conndeadline v2 reports
// from.
func deadlineFlow(pkg *Package, pf *PackageFacts) {
	// firstGuard holds, per function, the earliest position after which
	// I/O is considered deadline-guarded.
	firstGuard := make(map[*types.Func]token.Pos, len(pf.Own))
	for _, ff := range pf.Own {
		for _, cs := range pf.Graph.Calls[ff.Fn] {
			pos := cs.Call.Pos()
			if (cs.kind == setDeadline || summaryOf(pf, cs.Callee).SetsDeadline) &&
				(firstGuard[ff.Fn] == token.NoPos || pos < firstGuard[ff.Fn]) {
				firstGuard[ff.Fn] = pos
			}
		}
	}
	guarded := func(fn *types.Func, pos token.Pos) bool {
		g := firstGuard[fn]
		return g != token.NoPos && g < pos
	}

	// Direct problems: unguarded, non-idle-exempt wire I/O.
	for _, ff := range pf.Own {
		for _, cs := range pf.Graph.Calls[ff.Fn] {
			if (cs.kind == parkConnRead || cs.kind == parkConnWrite) &&
				!guarded(ff.Fn, cs.Call.Pos()) && !idleExempt(pkg, pf, ff, cs) {
				_, desc := classifyCall(cs.Callee)
				ff.Events = append(ff.Events, WireEvent{Pos: cs.Call.Pos(), Desc: desc})
			}
		}
	}

	// UnguardedIO fixpoint: a function has it if it does unguarded I/O
	// itself or makes an unguarded call to a function that has it.
	unguardedCall := func(ff *FuncFacts, cs CallSite) bool {
		return summaryOf(pf, cs.Callee).UnguardedIO && !guarded(ff.Fn, cs.Call.Pos())
	}
	pf.propagate(func(ff *FuncFacts) bool {
		if ff.Summary.UnguardedIO {
			return false
		}
		bad := len(ff.Events) > 0
		for _, cs := range pf.Graph.Calls[ff.Fn] {
			bad = bad || unguardedCall(ff, cs)
		}
		ff.Summary.UnguardedIO = bad
		return bad
	})

	// The call events follow the direct ones: every unguarded call to an
	// UnguardedIO callee, in lexical order.
	for _, ff := range pf.Own {
		for _, cs := range pf.Graph.Calls[ff.Fn] {
			if unguardedCall(ff, cs) {
				ff.Events = append(ff.Events, WireEvent{Pos: cs.Call.Pos(), Desc: "call", Callee: cs.Callee})
			}
		}
	}
}

// summaryOf consults the package's own (mutable, fixpoint-in-progress)
// facts first, then the imported table. A miss is the zero summary:
// unknown callees contribute nothing, so absence of facts can only cause
// false negatives, never false positives.
func summaryOf(pf *PackageFacts, callee *types.Func) FuncSummary {
	if ff := pf.byFn[callee]; ff != nil {
		return ff.Summary
	}
	return pf.All[FuncKey(callee)]
}

// idleExempt reports whether the read cs is an idle read: the read an
// io.Reader adapter forwards to the conn (see forwardsRead), on an owner
// whose Close (transitively, same package) closes a conn-shaped value.
// Both wire ends fill their decoder's bufio.Reader through such a Read, so
// this is every serve or reply loop's wait for the peer, one call further
// down. It blocks until the peer speaks or the owner's Close closes the
// conn under it — a deadline would turn idle connections into spurious
// errors.
func idleExempt(pkg *Package, pf *PackageFacts, ff *FuncFacts, cs CallSite) bool {
	named := RecvNamed(ff.Fn)
	if cs.kind != parkConnRead || named == nil || !forwardsRead(pkg, ff, cs.Call) {
		return false
	}
	return closeClosesConn(pf, named)
}

// forwardsRead reports whether the conn read call is an io.Reader adapter
// passing its own call on: ff is a `Read([]byte) (int, error)` method and
// the read hands that same slice to the conn. Whatever the method does
// around the read (flush, count, flag), it blocks exactly as long as the
// conn does, for a caller that asked to read.
func forwardsRead(pkg *Package, ff *FuncFacts, call *ast.CallExpr) bool {
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
	if len(call.Args) != 1 {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pkg.Info.Uses[arg] == buf
}

// closeClosesConn reports whether the named type has a Close method in this
// package that — directly or through same-package calls — calls Close on a
// conn-shaped value.
func closeClosesConn(pf *PackageFacts, named *types.Named) bool {
	var closeFn *types.Func
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == "Close" {
			closeFn = m
			break
		}
	}
	seen := make(map[*types.Func]bool)
	var reaches func(fn *types.Func) bool
	reaches = func(fn *types.Func) bool {
		if seen[fn] || pf.byFn[fn] == nil {
			return false
		}
		seen[fn] = true
		for _, cs := range pf.Graph.Calls[fn] {
			if cs.kind == connClose || reaches(cs.Callee) {
				return true
			}
		}
		return false
	}
	return closeFn != nil && reaches(closeFn)
}
