// The experiments package's one wall-clock seam, marked by a file-ignore
// directive: the fixed form of E15 reads the clock through it.

//namingvet:file-ignore detrand -- sole wall-clock seam; tests stub now

package experiments

import "time"

var now = time.Now

func since(start time.Time) time.Duration {
	return now().Sub(start)
}
