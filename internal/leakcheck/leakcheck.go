// Package leakcheck is a TestMain helper that fails a package's test run
// when goroutines started during it are still alive after it: every
// server, pusher, applier and client reader a test starts must be joined
// by the time the test (and its cleanups) return. Standard library only.
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settleTimeout is how long goroutines that are on their way out — a
// connection handler between its last read error and its return — get to
// finish before they count as leaked.
const settleTimeout = 5 * time.Second

// Main runs m and exits with its code, or with 1 — after dumping every
// goroutine's stack — if the run passed but the goroutine count has not
// come back down to what it was before the tests by the settle timeout.
func Main(m *testing.M) {
	// Every goroutine some test could have joined: all but os/signal's
	// receive loop, which the first signal.Notify of the process starts and
	// nothing stops — and `go test -fuzz` calls Notify in the coordinating
	// process, so counting it made every fuzz run that passed exit 1.
	buf := make([]byte, 1<<20)
	goroutines := func() int {
		n := runtime.NumGoroutine()
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("os/signal.signal_recv")) {
			n--
		}
		return n
	}
	before := goroutines()
	code := m.Run()
	for deadline := time.Now().Add(settleTimeout); code == 0 && goroutines() > before; {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d after:\n%s\n",
				before, goroutines(), buf[:runtime.Stack(buf, true)])
			code = 1
		}
		time.Sleep(time.Millisecond)
	}
	os.Exit(code)
}
