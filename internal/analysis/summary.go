package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FuncSummary is the interprocedural fact set recorded for one function.
// Summaries are computed per package in dependency order; cross-package
// flags are the transitive closure over imported facts, so a caller in
// internal/cluster sees through a callee in internal/nameserver.
type FuncSummary struct {
	// SetsDeadline: the function sets a conn deadline on every analysis
	// path that matters to us — it calls Set(Read|Write)?Deadline, or a
	// function whose summary says so (transitive).
	SetsDeadline bool `json:",omitempty"`
	// ConnIO: the function reaches wire I/O — a Read/Write on a
	// conn-shaped value, or a Dial* call (transitive).
	ConnIO bool `json:",omitempty"`
	// UnguardedIO: the function performs wire I/O that is not preceded by
	// a deadline inside its own body, and is not exonerated by its call
	// sites (see conndeadline v2). A caller that invokes an UnguardedIO
	// function without first setting a deadline inherits the problem.
	UnguardedIO bool `json:",omitempty"`
	// Canonicalizes: the function is a name-canonicalization point — it
	// carries a //namingvet:canonicalizer directive, or trivially wraps
	// one (its return statements forward a canonicalizer call).
	Canonicalizes bool `json:",omitempty"`
	// ReachesCanon: the function calls a canonicalizer, directly or
	// transitively. wirecanon uses this for its "core.Path in, wire I/O
	// out, never canonicalized" rule.
	ReachesCanon bool `json:",omitempty"`
	// RevBumps: the function is a revision-advance point — it carries a
	// //namingvet:revbump directive (Server.Bump, Server.SetRevision).
	RevBumps bool `json:",omitempty"`
	// ReachesRevBump: the function calls a revision-advance point,
	// directly or transitively. mutbump uses this for its "mutates a
	// binding, never bumps the revision" rule.
	ReachesRevBump bool `json:",omitempty"`
	// Allocates: the body itself contains steady-path heap-allocation
	// evidence (direct only; see alloc.go for the evidence catalogue).
	// Sites on a //namingvet:allocfree-exempt line and bodies of exempt
	// functions contribute nothing.
	Allocates bool `json:",omitempty"`
	// EscapesToHeap: calling the function may allocate — it Allocates
	// itself or reaches a function that does (transitive, with exempt
	// call sites and exempt callees excluded). allocfree reports any
	// //namingvet:allocfree root whose closure has this set.
	EscapesToHeap bool `json:",omitempty"`
	// AllocVia, when EscapesToHeap is set, is a human-readable sample of
	// one allocation the function reaches — nested across packages, so a
	// diagnostic at an annotated root can show the whole chain down to
	// the allocating expression.
	AllocVia string `json:",omitempty"`
	// AcquiresLocks maps lock identities (see lockorder.go: receiver type
	// + field path, "(*nameserver.Server).mu") to evidence that calling
	// the function may acquire that lock, directly or transitively.
	AcquiresLocks map[string]LockAcq `json:",omitempty"`
	// LockEdges lists the acquisition-order edges observed in the body:
	// Held was held at a point where Acq was acquired (directly or via a
	// call whose summary acquires it). lockorder folds every package's
	// edges into one module-global graph and reports its cycles.
	LockEdges []LockEdge `json:",omitempty"`
	// MayPark: the function's own goroutine may park indefinitely — on a
	// channel send/receive, a select with no default, a range over a
	// channel, or a call parkingCall recognises (conn Read/Write, Dial*,
	// time.Sleep, WaitGroup.Wait, Cond.Wait) — directly or transitively.
	// lockblock reports callers that invoke it under a held mutex.
	MayPark bool `json:",omitempty"`
	// ParkVia, when MayPark is set, samples one parking operation the
	// function reaches, nested across packages like AllocVia.
	ParkVia string `json:",omitempty"`
}

// Summaries maps FuncKey strings to summaries. Keys use types.Func.FullName
// ("pkg/path.Func", "(*pkg/path.T).Method"), which is unique module-wide,
// so merging maps from different packages can never collide.
type Summaries map[string]FuncSummary

// FuncKey returns the summary key for fn.
func FuncKey(fn *types.Func) string { return fn.FullName() }

// WireEvent is one lexical event inside a function body that conndeadline
// cares about: a direct wire I/O operation, or a call to a function whose
// summary says it performs unguarded wire I/O.
type WireEvent struct {
	Pos  token.Pos
	Desc string // "conn read", "conn write"
	// Callee is non-nil when the event is a call to an UnguardedIO
	// function rather than direct I/O.
	Callee *types.Func
}

// AllocSite is one steady-path allocation observed in a function body:
// the expression's position and a description of why it allocates.
type AllocSite struct {
	Pos  token.Pos
	Desc string
}

// FuncFacts couples a declared function's syntax with its computed summary
// and the event list conndeadline reports from.
type FuncFacts struct {
	Fn      *types.Func
	Decl    *ast.FuncDecl
	Summary FuncSummary
	Events  []WireEvent
	// Allocs lists the body's non-exempt allocation sites in lexical
	// order (empty for //namingvet:allocfree-exempt functions).
	Allocs []AllocSite
	// AllocFreeRoot: the declaration carries //namingvet:allocfree — the
	// function and everything it transitively reaches must not allocate
	// on the steady path.
	AllocFreeRoot bool
	// AllocExempt: the declaration carries //namingvet:allocfree-exempt —
	// the body is off the steady path (error teardown, cold setup) and
	// contributes no allocation evidence.
	AllocExempt bool
	// WireDecoder: the declaration carries //namingvet:wiredecoder — it
	// is the receive boundary, writing wire Path/Paths fields from bytes
	// that arrived off the wire. wirecanon's field-flow rule (canonicalize
	// before embedding) is a send-side obligation, so it skips these;
	// the receive side re-validates names where they are used instead.
	WireDecoder bool
	// Exonerated: every same-package call site of this (unexported,
	// never used as a value) function is deadline-guarded, so its
	// unguarded events are the callers' responsibility — already
	// discharged. Exonerated functions are neither reported nor exported
	// as UnguardedIO.
	Exonerated bool
	// LockAcquires, LockCalls, BlockOps and LockExits are the body's
	// lock-discipline events with held-set snapshots, collected by the one
	// held-set scan (lockorder.go). The lockorder, lockblock and lockexit
	// analyzers report from them.
	LockAcquires []LockAcquire
	LockCalls    []LockCall
	BlockOps     []BlockOp
	LockExits    []LockExit
}

// PackageFacts is what one RunAnalyzers invocation computes and every
// analyzer Pass can see.
type PackageFacts struct {
	// All merges the imported summaries with this package's own — the
	// lookup table for cross-package queries.
	All Summaries
	// Own holds this package's declared functions in source order.
	Own []*FuncFacts
	// Graph is the package's call graph.
	Graph *CallGraph

	byFn map[*types.Func]*FuncFacts
	// allocExempt marks the lines //namingvet:allocfree-exempt covers
	// (the directive's line and the next): allocation evidence there is
	// dropped and call edges there do not propagate allocation facts.
	allocExempt map[string]map[int]bool
}

// AllocExemptAt reports whether posn sits on a line covered by a
// //namingvet:allocfree-exempt directive.
func (pf *PackageFacts) AllocExemptAt(posn token.Position) bool {
	return pf.allocExempt[posn.Filename][posn.Line]
}

// OwnFacts returns the facts for a function declared in this package, or
// nil for imported/undeclared functions.
func (pf *PackageFacts) OwnFacts(fn *types.Func) *FuncFacts {
	return pf.byFn[fn]
}

// CanonicalizerDirective in a function's doc comment marks it as a
// §6 canonicalization point: its results are wire-coherent names.
const CanonicalizerDirective = "//namingvet:canonicalizer"

// RevBumpDirective in a function's doc comment marks it as a revision
// advance: callers mutating bindings discharge the coherence obligation
// by reaching one of these before replying.
const RevBumpDirective = "//namingvet:revbump"

// AllocFreeDirective in a function's doc comment declares the function an
// allocation-free root: it and everything it transitively reaches must not
// allocate on the steady path (allocfree enforces it).
const AllocFreeDirective = "//namingvet:allocfree"

// AllocFreeExemptDirective marks cold code the allocfree discipline skips:
// on a function's doc comment the whole body is exempt; on or above a
// statement line (optionally with `-- reason`) just that line is. Error
// construction, teardown, and one-time setup live behind it.
const AllocFreeExemptDirective = "//namingvet:allocfree-exempt"

// WireDecoderDirective in a function's doc comment marks it as a wire
// receive boundary: it decodes Path/Paths fields from bytes off the
// wire, so wirecanon's send-side canonicalization rule does not apply
// to its stores (the decoded names are re-validated where used).
const WireDecoderDirective = "//namingvet:wiredecoder"

// atoms are the raw, position-ordered observations collected from one body
// before any fixpoint runs.
type atoms struct {
	deadlinePos []token.Pos // direct Set*Deadline calls
	ios         []ioAtom    // direct wire I/O operations
	dials       bool
	calls       []CallSite // every statically resolved call, with position
	// canonReturn: every return statement forwards a call; used for the
	// thin-wrapper Canonicalizes propagation. Holds the forwarded callees.
	returnCallees []*types.Func
}

type ioAtom struct {
	pos  token.Pos
	desc string
	read bool // decode / conn read
}

// ComputeFacts builds the package's call graph, computes per-function
// summaries as a fixpoint over same-package calls plus imported facts, and
// runs the deadline-flow pass (guarded events, call-site exoneration,
// idle-read exemption) that conndeadline v2 and the exported UnguardedIO
// fact are built on.
func ComputeFacts(pkg *Package, imported Summaries) *PackageFacts {
	g := BuildCallGraph(pkg)
	pf := &PackageFacts{
		All:   make(Summaries, len(imported)+len(g.Order)),
		Graph: g,
		byFn:  make(map[*types.Func]*FuncFacts, len(g.Order)),
	}
	for k, v := range imported {
		pf.All[k] = v
	}

	obs := make(map[*types.Func]*atoms, len(g.Order))
	for _, fn := range g.Order {
		decl := g.Decls[fn]
		a := collectAtoms(pkg, decl)
		a.calls = g.Calls[fn]
		obs[fn] = a
		ff := &FuncFacts{Fn: fn, Decl: decl}
		if hasDirective(decl.Doc, CanonicalizerDirective) {
			ff.Summary.Canonicalizes = true
		}
		if hasDirective(decl.Doc, RevBumpDirective) {
			ff.Summary.RevBumps = true
		}
		ff.AllocFreeRoot = hasDirective(decl.Doc, AllocFreeDirective)
		ff.AllocExempt = hasDirective(decl.Doc, AllocFreeExemptDirective)
		ff.WireDecoder = hasDirective(decl.Doc, WireDecoderDirective)
		ff.Summary.SetsDeadline = len(a.deadlinePos) > 0
		ff.Summary.ConnIO = len(a.ios) > 0 || a.dials
		pf.Own = append(pf.Own, ff)
		pf.byFn[fn] = ff
	}

	// Fixpoint over the monotone transitive flags. Each flag only flips
	// false→true, so the loop terminates.
	for changed := true; changed; {
		changed = false
		for _, ff := range pf.Own {
			a := obs[ff.Fn]
			s := &ff.Summary
			for _, cs := range a.calls {
				cal := summaryOf(pf, cs.Callee)
				if cal.SetsDeadline && !s.SetsDeadline {
					s.SetsDeadline, changed = true, true
				}
				if cal.ConnIO && !s.ConnIO {
					s.ConnIO, changed = true, true
				}
				if (cal.Canonicalizes || cal.ReachesCanon) && !s.ReachesCanon {
					s.ReachesCanon, changed = true, true
				}
				if (cal.RevBumps || cal.ReachesRevBump) && !s.ReachesRevBump {
					s.ReachesRevBump, changed = true, true
				}
			}
			for _, ret := range a.returnCallees {
				if summaryOf(pf, ret).Canonicalizes && !s.Canonicalizes {
					s.Canonicalizes, changed = true, true
				}
			}
			if s.Canonicalizes && !s.ReachesCanon {
				s.ReachesCanon, changed = true, true
			}
			if s.RevBumps && !s.ReachesRevBump {
				s.ReachesRevBump, changed = true, true
			}
		}
	}

	deadlineFlow(pkg, pf, obs)
	allocFlow(pkg, pf, obs)
	lockFlow(pkg, pf)

	for _, ff := range pf.Own {
		pf.All[FuncKey(ff.Fn)] = ff.Summary
	}
	return pf
}

// collectAtoms gathers the raw observations from one declaration. Nested
// function literals are folded in: a deferred or spawned closure's I/O and
// deadlines belong, for summary purposes, to the declaring function.
func collectAtoms(pkg *Package, decl *ast.FuncDecl) *atoms {
	a := &atoms{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if call, ok := res.(*ast.CallExpr); ok {
					if callee := CalleeFunc(pkg.Info, call); callee != nil {
						a.returnCallees = append(a.returnCallees, callee)
					}
				}
			}
		case *ast.CallExpr:
			callee := CalleeFunc(pkg.Info, node)
			if callee == nil {
				return true
			}
			switch callee.Name() {
			case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
				a.deadlinePos = append(a.deadlinePos, node.Pos())
			}
			switch kind, desc := parkingCall(callee); kind {
			case parkConnRead, parkConnWrite:
				a.ios = append(a.ios, ioAtom{node.Pos(), desc, kind == parkConnRead})
			case parkDial:
				a.dials = true
			}
		}
		return true
	})
	return a
}

// parkKind says how a call parkingCall recognises can park its goroutine.
type parkKind uint8

const (
	noPark        parkKind = iota
	parkPlain              // time.Sleep, sync.WaitGroup.Wait: parks, no more to say
	parkConnRead           // Read on a conn-shaped value
	parkConnWrite          // Write on a conn-shaped value
	parkDial               // any Dial*/dial* function
	parkCond               // sync.Cond.Wait: releases its one lock while parked
)

// parkingCall is the one catalogue of calls that can park the calling
// goroutine for as long as something outside it pleases, with the text
// diagnostics name them by. The wire kinds feed ConnIO and the deadline
// flow; every kind is a BlockOp for the lock family.
//
// os.File passes the conn duck test (it has SetDeadline for pipes), but
// file I/O is a durability concern, not a transport one: a file write
// blocks for one disk flush, not for as long as a hung peer pleases, a
// deadline on a disk file is meaningless, and serializing a manifest
// rewrite under its store's lock is the intended pattern. casimmut guards
// file writes with the fsync rule instead.
func parkingCall(callee *types.Func) (parkKind, string) {
	recv := callee.Type().(*types.Signature).Recv()
	switch name := callee.Name(); {
	case name == "Read" || name == "Write":
		if recv != nil && HasMethods(recv.Type(), "Read", "Write", "SetDeadline") &&
			!IsNamedType(recv.Type(), "os", "File") {
			if name == "Read" {
				return parkConnRead, "conn read"
			}
			return parkConnWrite, "conn write"
		}
	case name == "Sleep":
		if callee.Pkg() != nil && callee.Pkg().Path() == "time" {
			return parkPlain, "time.Sleep"
		}
	case name == "Wait" && recv != nil:
		if IsNamedType(recv.Type(), "sync", "WaitGroup") {
			return parkPlain, "sync.WaitGroup.Wait"
		}
		if IsNamedType(recv.Type(), "sync", "Cond") {
			return parkCond, "sync.Cond.Wait"
		}
	case strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "dial"):
		return parkDial, name
	}
	return noPark, ""
}

// hasDirective reports whether the doc comment group contains the given
// //namingvet:… directive as a full line, optionally followed by a
// `-- reason` tail.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if directiveMatches(c.Text, directive) {
			return true
		}
	}
	return false
}

// directiveMatches reports whether the comment text is the directive, bare
// or with a `-- reason` tail.
func directiveMatches(text, directive string) bool {
	text = strings.TrimSpace(text)
	if text == directive {
		return true
	}
	rest, ok := strings.CutPrefix(text, directive)
	return ok && strings.HasPrefix(strings.TrimLeft(rest, " \t"), "--")
}
