// The experiments package's one wall-clock seam, a package-level var whose
// whole value is time.Now: the fixed form of E15 reads the clock through
// it.

package experiments

import "time"

var now = time.Now

func since(start time.Time) time.Duration {
	return now().Sub(start)
}
