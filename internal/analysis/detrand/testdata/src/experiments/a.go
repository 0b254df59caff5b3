// Package experiments exercises detrand: inline wall clocks and math/rand
// are forbidden in deterministic packages. (The directory is named
// experiments so the testdata package path lands in the analyzer's scope.)
package experiments

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func badNow() time.Time {
	return time.Now() // want `inline time\.Now breaks experiment reproducibility`
}

func badSince(start time.Time) time.Duration {
	return time.Since(start) // want `inline time\.Since breaks experiment reproducibility`
}

func badRand() int {
	return rand.Intn(10) // want `inline rand\.Intn breaks determinism`
}

func badRandV2() uint64 {
	return randv2.Uint64() // want `inline rand\.Uint64 breaks determinism`
}

// okDuration: time types and arithmetic are fine — only the wall-clock
// reads are nondeterministic.
func okDuration(d time.Duration) time.Duration {
	return d + 5*time.Millisecond
}

// okTimer: timers and durations read no wall clock.
func okTimer(ch chan struct{}) {
	t := time.NewTimer(time.Second)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ch:
	}
}
