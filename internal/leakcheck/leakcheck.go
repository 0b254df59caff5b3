// Package leakcheck is a TestMain helper that fails a package's test run
// when goroutines started during it are still alive after it, or (on
// Linux) when descriptors opened during it are still open: every server,
// pusher, applier, client reader, listener, connection and file a test
// starts or opens must be joined or closed by the time the test (and its
// cleanups) return. Standard library only.
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// settleTimeout is how long goroutines that are on their way out — a
// connection handler between its last read error and its return — get to
// finish, and the descriptors they hold to close, before they count as
// leaked.
const settleTimeout = 5 * time.Second

// Main runs m and exits with its code, or with 1 — after dumping every
// goroutine's stack, or every open descriptor's target — if the run passed
// but the goroutine count or the open descriptor count has not come back
// down to what it was before the tests by the settle timeout.
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
	before, fdsBefore := goroutines(), len(openFDs())
	code := m.Run()
	for deadline := time.Now().Add(settleTimeout); code == 0 && (goroutines() > before || len(openFDs()) > fdsBefore); {
		if time.Now().After(deadline) {
			if n := goroutines(); n > before {
				fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d after:\n%s\n",
					before, n, buf[:runtime.Stack(buf, true)])
			}
			if fds := openFDs(); len(fds) > fdsBefore {
				fmt.Fprintf(os.Stderr, "leakcheck: %d open descriptors before the tests, %d after: %v\n",
					fdsBefore, len(fds), fds)
			}
			code = 1
		}
		time.Sleep(time.Millisecond)
	}
	os.Exit(code)
}

// openFDs lists the process's open descriptors as "fd -> target", leaving
// out the one it reads the listing through. It lists nothing where there
// is no /proc/self/fd, so the descriptor check runs on Linux only.
func openFDs() []string {
	if runtime.GOOS != "linux" {
		return nil
	}
	dir, err := os.Open("/proc/self/fd")
	if err != nil {
		return nil
	}
	names, err := dir.Readdirnames(-1)
	self := strconv.Itoa(int(dir.Fd()))
	_ = dir.Close()
	if err != nil {
		return nil
	}
	var fds []string
	for _, name := range names {
		if name == self {
			continue
		}
		target, err := os.Readlink("/proc/self/fd/" + name)
		if err != nil {
			continue // closed since the listing was read
		}
		fds = append(fds, name+" -> "+target)
	}
	return fds
}
