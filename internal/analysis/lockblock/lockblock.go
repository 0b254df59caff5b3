// Package lockblock flags operations that can park the goroutine
// indefinitely while a sync mutex is held: reads and writes on a
// conn-shaped value, Dial* calls, time.Sleep, channel sends and receives,
// select statements with no default, ranging over a channel,
// sync.WaitGroup.Wait, and sync.Cond.Wait held alongside a second lock —
// plus calls, across packages via .vetx facts, to any function whose
// MayPark summary says it reaches one of those, with the call chain down
// to the parking operation in the message. A name server that parks while
// holding the lock that guards its caches or connection pool wedges every
// other request behind one slow peer, and a pusher goroutine parked on a
// full invalidation channel is just as wedged behind a held server mutex
// as one parked on a peer's TCP window.
//
// Structurally non-blocking operations never reach this analyzer: the
// facts layer drops selects that contain a default clause and sends on a
// function-local channel whose constant capacity provably exceeds the
// body's send count (see analysis.localBufferedChans). Cond.Wait holding
// exactly the cond's one lock is the primitive's documented contract —
// Wait releases it while parked — and is exempt.
package lockblock

import (
	"go/token"

	"namecoherence/internal/analysis"
)

// Analyzer is the lockblock analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockblock",
	Doc:  "flags wire I/O, Dial*, Sleep, channel operations, WaitGroup.Wait, and calls that may park indefinitely while a sync mutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	// A parking call is both a BlockOp and a LockCall (a module's own dialX
	// has a summary besides); one report per call site.
	parked := make(map[token.Pos]bool)
	for _, ff := range pass.Facts.Own {
		for _, op := range ff.BlockOps {
			if len(op.Held) == 0 || op.Exempt {
				continue
			}
			parked[op.Pos] = true
			pass.Reportf(op.Pos, "%s while %s is held: the goroutine can park indefinitely holding the lock",
				op.Desc, op.Held[len(op.Held)-1].ID)
		}
		for _, lc := range ff.LockCalls {
			if len(lc.Held) == 0 || parked[lc.Pos] {
				continue
			}
			cal := pass.Facts.All[analysis.FuncKey(lc.Callee)]
			if !cal.MayPark {
				continue
			}
			pass.Reportf(lc.Pos, "call to %s, which may block (%s), while %s is held",
				lc.Callee.Name(), cal.ParkVia, lc.Held[len(lc.Held)-1].ID)
		}
	}
	return nil, nil
}
