// Package leakcheck is a TestMain helper that fails a package's test run
// when goroutines started during it are still alive after it: every
// server, pusher, applier and client reader a test starts must be joined
// by the time the test (and its cleanups) return. Standard library only.
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
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
	before := runtime.NumGoroutine()
	code := m.Run()
	for deadline := time.Now().Add(settleTimeout); code == 0 && runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d after:\n%s\n",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			code = 1
		}
		time.Sleep(time.Millisecond)
	}
	os.Exit(code)
}
