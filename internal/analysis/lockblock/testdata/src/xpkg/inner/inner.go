// Package inner is the cross-package half of the xpkg fixture: its
// exported MayPark facts must reach the importing package.
package inner

import "time"

// Blocking sleeps, so its MayPark fact is set.
func Blocking() { time.Sleep(time.Millisecond) }

// Wrapper blocks only transitively, through Blocking.
func Wrapper() { Blocking() }

// Pure never blocks.
func Pure() int { return 1 }
