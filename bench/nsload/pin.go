package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU restricts this process to the first CPU it is allowed on:
// every thread it has now and, by inheritance, every thread it starts and
// every child it forks — so nsd shares that CPU and sees a one-CPU machine.
//
// Why: the sizing host is a 2-vCPU shared VM. Unpinned, the kernel moves
// the two processes between "same CPU" (a 20µs serial round trip) and
// "different CPUs" (80µs, most of it the hypervisor delivering a wakeup),
// and a run's figures depend on how long it spent in each state — windows
// of one run differed threefold. On one CPU the numbers are the software's.
func pinToOneCPU() (int, error) {
	var allowed, one [16]uint64 // room for 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i, w := range allowed {
		if w != 0 {
			cpu = i*64 + bits.TrailingZeros64(w)
			break
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	one[cpu/64] = 1 << (cpu % 64)
	// Twice: a thread an unpinned thread started during the first pass is
	// caught by the second, and by then every possible parent is pinned.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread exited meanwhile
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return cpu, nil
}
