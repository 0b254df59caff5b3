// Package experiments pins detrand's clock seam rule: the first
// package-level var whose whole value is time.Now, time.Since or
// time.Until, uncalled, is the package's seam and is silent. A second such
// var is reported, and so is every other wall-clock or math/rand use: a
// package-level var holding a clock reading, a local func value, a draw.
// (The directory is named experiments so the package path lands in the
// analyzer's scope.)
package experiments

import (
	"math/rand"
	"time"
)

var now = time.Now

var since = time.Since // want `second clock seam time\.Since`

var t0 = time.Now() // want `inline time\.Now breaks experiment reproducibility`

func elapsed() time.Duration {
	f := time.Now // want `inline time\.Now breaks experiment reproducibility`
	return f().Sub(now())
}

func draw() int {
	return rand.Int() // want `inline rand\.Int breaks determinism`
}

var _, _, _, _ = since, t0, elapsed, draw
