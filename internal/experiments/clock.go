// The single wall-clock seam for the experiments package. Experiments
// must be deterministic given a seed (detrand enforces this); latency
// measurement is the one legitimate wall-clock use, so it is funneled
// through these two hooks, which a test can stub. detrand knows the seam
// by its shape: now is a package-level var whose whole value is time.Now.

package experiments

import "time"

// now reads the wall clock. Stubbed in tests that need fixed timings.
var now = time.Now

// since reports the elapsed time from start, via the now hook.
func since(start time.Time) time.Duration {
	return now().Sub(start)
}
