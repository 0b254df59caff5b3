package main

import (
	"fmt"
	"math"
	"strings"
)

// exact reports whether a per-layer metric is a count that must repeat
// exactly from run to run: frames and bytes per serial op pin the wire
// format, blobs and bytes per snapshot pin the store's.
func exact(name string) bool {
	return strings.HasSuffix(name, ".d1") || strings.HasSuffix(name, "_bytes_per_op") || strings.HasPrefix(name, "cas.")
}

// selfcheck runs every workload twice back to back, untraced and traced,
// and prints each end-to-end metric's relative spread beside its bound, then
// both readings of every per-layer metric.
// It fails when a spread exceeds its bound, when an exact count differs
// between the two traced runs, or when any operation failed.
func (e *env) selfcheck(seed uint64, seconds int) error {
	bad := 0
	for _, wl := range workloads {
		var plain, traced [2]*report
		for i := 0; i < 2; i++ {
			var err error
			if plain[i], err = e.run(wl, seed, seconds, false); err != nil {
				return err
			}
			if traced[i], err = e.run(wl, seed, seconds, true); err != nil {
				return err
			}
			if n := plain[i].failed + traced[i].failed; n > 0 {
				return fmt.Errorf("%s: %d operations failed", wl.name, n)
			}
		}
		fmt.Printf("== %s seed=%d seconds=%d\n", wl.name, seed, seconds)
		fmt.Printf("  %-26s %14s %14s %8s %6s\n", "metric", "first", "second", "spread", "bound")
		for _, d := range endToEnd {
			a, b := plain[0].Metrics[d.name], plain[1].Metrics[d.name]
			spread := math.Abs(a-b) / ((a + b) / 2)
			verdict := ""
			if spread > d.bound {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("  %-26s %14.4f %14.4f %8.4f %6.2f%s\n", d.name, a, b, spread, d.bound, verdict)
		}
		for _, d := range perLayer {
			a, b := traced[0].Metrics[d.name], traced[1].Metrics[d.name]
			verdict := ""
			if exact(d.name) {
				verdict = "  exact"
				if a != b {
					verdict = "  NOT EXACT"
					bad++
				}
			}
			fmt.Printf("  %-40s %14.4f %14.4f %-6s%s\n", d.name, a, b, d.unit, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d checks failed", bad)
	}
	return nil
}

// smoke runs every workload for about a second in both modes: no bounds,
// only "it builds, it runs, every answer is right, every metric is there".
func (e *env) smoke(seed uint64) error {
	e.setUps, e.restarts, e.ladderOps = 1, 1, 20*2*numVictim
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := e.run(wl, seed, 2, trace)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", wl.name, trace, err)
			}
			if err := rep.print(); err != nil {
				return err
			}
		}
	}
	return nil
}
