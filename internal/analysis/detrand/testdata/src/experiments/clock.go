// The clock seam: the one package-level var in a deterministic package
// whose whole value is a wall-clock func, uncalled.

package experiments

import "time"

var now = time.Now

func since(start time.Time) time.Duration {
	return now().Sub(start)
}

var _ = since
