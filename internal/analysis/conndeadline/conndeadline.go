// Package conndeadline enforces the transport-deadline invariant of the
// fault-tolerant cluster (DESIGN §3a): inside internal/cluster and
// internal/nameserver, every net.Conn read/write must be preceded by a
// SetDeadline/SetReadDeadline/SetWriteDeadline call, and raw net.Dial is
// forbidden in favor of net.DialTimeout (or DialContext). An unbounded
// round-trip against a hung replica turns one wedged server into a wedged
// client; the failover and circuit-breaker logic only runs when I/O fails
// in bounded time.
//
// v2 is call-graph aware, using the interprocedural facts layer:
//
//   - A function answers for its own I/O: unguarded I/O is reported where
//     it is made, however well guarded the function's callers are.
//   - The obligation flows caller-ward: calling a function whose exported
//     UnguardedIO fact is set, without a preceding deadline, is reported
//     at the call site — across package boundaries, via facts.
//   - Idle-loop reads are exempt: a read in a `for {}` loop of a
//     method whose owner's Close closes the conn (the server's idle
//     accept-and-wait pattern) blocks on purpose; Close unhangs it. So
//     does the read a `Read([]byte) (int, error)` method of such an owner
//     forwards to the conn: it is the loop's read, reached through the
//     decoder's buffer.
package conndeadline

import (
	"go/ast"
	"go/types"

	"namecoherence/internal/analysis"
)

// Analyzer is the conndeadline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "conndeadline",
	Doc:  "requires a SetDeadline before net.Conn wire I/O and before calls to functions that do it unguarded, and forbids raw net.Dial in transport packages",
	Run:  run,
	// Scope limits the analyzer to packages whose import path has one of
	// these segments. Deadlines are a transport concern; in-memory packages
	// are exempt.
	Scope: []string{"cluster", "nameserver"},
}

func run(pass *analysis.Pass) (any, error) {
	for _, ff := range pass.Facts.Own {
		for _, ev := range ff.Events {
			if ev.Callee != nil {
				pass.Reportf(ev.Pos,
					"call to %s, which performs wire I/O without its own deadline, must follow a SetDeadline in %s",
					calleeLabel(pass, ev.Callee), ff.Decl.Name.Name)
				continue
			}
			pass.Reportf(ev.Pos,
				"%s without a preceding SetDeadline in %s; unbounded wire I/O defeats failover",
				ev.Desc, ff.Decl.Name.Name)
		}
	}
	// Raw net.Dial stays a structural check: it needs no dataflow.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.CalleeFunc(pass.TypesInfo, call)
			if callee == nil || callee.Name() != "Dial" {
				return true
			}
			recv := callee.Type().(*types.Signature).Recv()
			if recv == nil && callee.Pkg() != nil && callee.Pkg().Path() == "net" {
				pass.Reportf(call.Pos(),
					"raw net.Dial is unbounded; use net.DialTimeout so a dead replica costs one timeout")
			}
			return true
		})
	}
	return nil, nil
}

// calleeLabel renders a callee for a diagnostic: pkg-qualified for
// cross-package targets, bare for local ones.
func calleeLabel(pass *analysis.Pass, fn *types.Func) string {
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
