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
	SetsDeadline bool
	// UnguardedIO: the function performs wire I/O that is not preceded by
	// a deadline inside its own body (see conndeadline v2). A caller that
	// invokes an UnguardedIO function without first setting a deadline
	// inherits the problem.
	UnguardedIO bool
	// AcquiresLocks maps lock identities (see lockorder.go: receiver type
	// + field path, "(*nameserver.Server).mu") to evidence that calling
	// the function may acquire that lock, directly or transitively.
	AcquiresLocks map[string]LockAcq
	// LockEdges lists the acquisition-order edges observed in the body:
	// Held was held at a point where Acq was acquired (directly or via a
	// call whose summary acquires it). lockorder folds every package's
	// edges into one module-global graph and reports its cycles.
	LockEdges []LockEdge
	// MayPark: the function's own goroutine may park indefinitely — on a
	// channel send/receive, a select with no default, a range over a
	// channel, or a parking call classifyCall knows (conn Read/Write, Dial*,
	// time.Sleep, WaitGroup.Wait, Cond.Wait) — directly or transitively.
	// lockblock reports callers that invoke it under a held mutex.
	MayPark bool
	// ParkVia, when MayPark is set, samples one parking operation the
	// function reaches, nested across packages, so a diagnostic at the
	// caller can show the whole chain down to the parking operation.
	ParkVia string
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

// FuncFacts couples a declared function's syntax with its computed summary
// and the event list conndeadline reports from.
type FuncFacts struct {
	Fn      *types.Func
	Decl    *ast.FuncDecl
	Summary FuncSummary
	Events  []WireEvent
	// LockAcquires, LockCalls, BlockOps and LockExits are the body's
	// lock-discipline events with held-set snapshots, collected by the one
	// held-set scan (lockorder.go). lockblock and lockexit report from
	// them; lockorder reports from the edges built from them once:
	// Summary.LockEdges, and Reacquires — every acquisition, direct or
	// through a call, of a lock the body already holds (Held == Acq).
	LockAcquires []LockAcquire
	LockCalls    []LockCall
	BlockOps     []BlockOp
	LockExits    []LockExit
	Reacquires   []LockEdge
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

	byFn map[*types.Func]*FuncFacts // Own by function, for summaryOf
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

	for _, fn := range g.Order {
		ff := &FuncFacts{Fn: fn, Decl: g.Decls[fn]}
		pf.Own = append(pf.Own, ff)
		pf.byFn[fn] = ff
	}

	pf.propagate(func(ff *FuncFacts) bool {
		s, before := &ff.Summary, ff.Summary
		for _, cs := range pf.Graph.Calls[ff.Fn] {
			cal := summaryOf(pf, cs.Callee)
			s.SetsDeadline = s.SetsDeadline || cs.kind == setDeadline || cal.SetsDeadline
		}
		return s.SetsDeadline != before.SetsDeadline
	})

	deadlineFlow(pkg, pf)
	lockFlow(pkg, pf)

	for _, ff := range pf.Own {
		pf.All[FuncKey(ff.Fn)] = ff.Summary
	}
	return pf
}

// propagate is the one caller-ward fixpoint every flow runs: fold folds
// the current summaries of ff's callees into ff.Summary and reports
// whether anything flipped. Each flow's facts only ever flip one way
// (false to true, or a set that only grows), so the loop ends. The order
// — declaration order, then each flow's own call order — is fixed, so
// the sample chains set at a first flip are deterministic.
func (pf *PackageFacts) propagate(fold func(ff *FuncFacts) bool) {
	for changed := true; changed; {
		changed = false
		for _, ff := range pf.Own {
			if fold(ff) {
				changed = true
			}
		}
	}
}

// callKind says what a call classifyCall recognises does: parks its
// goroutine (the park kinds), or touches a conn's lifecycle.
type callKind uint8

const (
	noPark        callKind = iota
	parkPlain              // time.Sleep, sync.WaitGroup.Wait: parks, no more to say
	parkConnRead           // Read on a conn-shaped value
	parkConnWrite          // Write on a conn-shaped value
	parkDial               // any Dial*/dial* function
	parkCond               // sync.Cond.Wait: releases its one lock while parked
	setDeadline            // Set(Read|Write)?Deadline: guards the wire I/O after it
	connClose              // Close on a conn-shaped value: unblocks a read parked on it
)

// parks reports whether the kind is in the blocking catalogue.
func (k callKind) parks() bool { return k != noPark && k < setDeadline }

// classifyCall is the one catalogue of the calls the facts layer reads
// meaning into, with the text diagnostics name them by. The park kinds
// are the calls that can park the calling goroutine for as long as
// something outside it pleases: the wire kinds feed the deadline flow,
// and every park kind is a BlockOp for the lock family.
// The deadline setters guard the deadline flow's I/O, and a conn Close is
// what makes an idle read exempt.
//
// A receiver is a conn when it is ConnShaped.
func classifyCall(callee *types.Func) (callKind, string) {
	recv := callee.Type().(*types.Signature).Recv()
	connShaped := func() bool { return recv != nil && ConnShaped(recv.Type()) }
	switch name := callee.Name(); {
	case name == "Read" || name == "Write":
		if connShaped() {
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
	case name == "SetDeadline" || name == "SetReadDeadline" || name == "SetWriteDeadline":
		return setDeadline, name
	case name == "Close":
		if connShaped() {
			return connClose, "conn close"
		}
	}
	return noPark, ""
}

// ConnShaped is the conn duck test: t has Read, Write and SetDeadline
// methods. os.File passes it (it has SetDeadline for pipes) and is left
// out: file I/O is a durability concern, not a transport one. A file write
// blocks for one disk flush, not for as long as a hung peer pleases, a
// deadline on a disk file is meaningless, and serializing a manifest
// rewrite under its store's lock is the intended pattern. A file write's
// durability is TestModuleInvariants' durable-publish guard instead.
func ConnShaped(t types.Type) bool {
	return HasMethods(t, "Read", "Write", "SetDeadline") && !IsNamedType(t, "os", "File")
}
