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
//   - The idle read is exempt: the read a `Read([]byte) (int, error)`
//     method forwards to the conn, when its owner's Close closes the conn.
//     Both wire ends fill their decoder's bufio.Reader through such a
//     Read, so it is where a serve or reply loop waits for the peer; it
//     blocks on purpose, and Close unhangs it.
//   - A conn handed over is reported at the handoff: passed as an
//     io.Reader or io.Writer to a function with no summary (bufio.NewReader,
//     io.ReadFull, io.Copy), it does its I/O where no rule can look. An
//     owner fills a bufio.Reader through its forwarding Read and drains a
//     bufio.Writer through a Write that arms the deadline itself.
package conndeadline

import (
	"go/ast"
	"go/types"

	"namecoherence/internal/analysis"
)

// Analyzer is the conndeadline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "conndeadline",
	Doc:  "requires a SetDeadline before net.Conn wire I/O and before calls to functions that do it unguarded, and forbids raw net.Dial and handing a conn to code it cannot see in transport packages",
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
	// Raw net.Dial and the conn handoff stay structural checks: they need
	// no dataflow.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.CalleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			sig := callee.Type().(*types.Signature)
			if callee.Name() == "Dial" && sig.Recv() == nil && callee.Pkg() != nil && callee.Pkg().Path() == "net" {
				pass.Reportf(call.Pos(),
					"raw net.Dial is unbounded; use net.DialTimeout so a dead replica costs one timeout")
			}
			if _, known := pass.Facts.All[analysis.FuncKey(callee)]; known {
				return true
			}
			for i, arg := range call.Args {
				if ioParam(sig, i) && analysis.ConnShaped(pass.TypesInfo.TypeOf(arg)) {
					pass.Reportf(arg.Pos(),
						"conn handed to %s, whose I/O on it no deadline rule can see; fill through a Read or drain through a Write its owner declares",
						calleeLabel(pass, callee))
				}
			}
			return true
		})
	}
	return nil, nil
}

// ioParam reports whether call argument i of sig lands in an io.Reader or
// io.Writer parameter.
func ioParam(sig *types.Signature, i int) bool {
	var t types.Type
	if last := sig.Params().Len() - 1; sig.Variadic() && i >= last {
		t = sig.Params().At(last).Type().(*types.Slice).Elem()
	} else {
		t = sig.Params().At(i).Type()
	}
	return analysis.IsNamedType(t, "io", "Reader") || analysis.IsNamedType(t, "io", "Writer")
}

// calleeLabel renders a callee for a diagnostic: pkg-qualified for
// cross-package targets, bare for local ones.
func calleeLabel(pass *analysis.Pass, fn *types.Func) string {
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
