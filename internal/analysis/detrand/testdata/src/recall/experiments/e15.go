// Package experiments reproduces the shape of the wall-clock bug detrand
// caught in experiment E15, beside the form it was fixed to. The
// buggy lines must keep firing and the fixed form must stay silent. (The
// directory is named experiments so the package path lands in the
// analyzer's scope.)
package experiments

import "time"

// E15, before the fix: the experiment timed its failover by reading the wall clock
// inline, so a test could not pin the table's timings.
func e15Failover(fail func()) time.Duration {
	start := time.Now() // want `inline time\.Now breaks experiment reproducibility`
	fail()
	return time.Since(start) // want `inline time\.Since breaks experiment reproducibility`
}

// Fixed: the experiment reads the clock through the package's seam.
func e15FailoverFixed(fail func()) time.Duration {
	start := now()
	fail()
	return since(start)
}
