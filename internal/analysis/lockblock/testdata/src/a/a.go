// Positive and negative cases for lockblock: channel traffic, WaitGroup
// joins, and blocking calls reached while a mutex is held, against the
// structural exemptions (select with default, provably buffered local
// handoff, Cond.Wait's contract).
package a

import (
	"sync"

	"namecoherence/internal/analysis/lockblock/testdata/src/a/inner"
)

type S struct {
	mu sync.Mutex
	wg sync.WaitGroup
	ch chan int
}

func (s *S) SendUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 // want `channel send while \(\*a\.S\)\.mu is held`
}

func (s *S) RecvUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive while \(\*a\.S\)\.mu is held`
}

func (s *S) WaitUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want `sync\.WaitGroup\.Wait while \(\*a\.S\)\.mu is held`
}

func (s *S) RangeUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for v := range s.ch { // want `range over channel while \(\*a\.S\)\.mu is held`
		total += v
	}
	return total
}

func (s *S) SelectUnderLock(other chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select with no default while \(\*a\.S\)\.mu is held`
	case v := <-s.ch:
		_ = v
	case other <- 1:
	}
}

// blocker parks on a channel; callers under a lock inherit the hazard
// through its MayPark summary.
func (s *S) blocker() {
	<-s.ch
}

func (s *S) CallBlockerUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocker() // want `call to blocker, which may block \(channel receive`
}

func (s *S) CrossPackageUnderLock(ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inner.Park(ch) // want `call to Park, which may block \(channel receive`
}

// F pairs a cond with the one lock it guards.
type F struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ready bool
}

// WaitCond holds exactly the cond's lock across Wait — the primitive's
// documented contract (Wait releases it while parked). No report.
func (f *F) WaitCond() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.ready {
		f.cond.Wait()
	}
}

// WaitCondTwoLocks parks holding a second lock that Wait does not
// release: that one wedges for as long as the cond stays unsignalled.
func (f *F) WaitCondTwoLocks(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cond.Wait() // want `sync\.Cond\.Wait while \(\*a\.F\)\.mu is held`
}

// SelectDefaultUnderLock cannot park: the default clause makes the
// channel ops opportunistic. No report.
func (s *S) SelectDefaultUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	default:
	}
}

// BufferedLocalUnderLock sends on a local channel whose constant capacity
// covers the body's one send and which never leaves the function: a
// handoff, not a rendezvous. No report.
func (s *S) BufferedLocalUnderLock() int {
	done := make(chan int, 1)
	s.mu.Lock()
	done <- 1
	s.mu.Unlock()
	return <-done
}

// LeakedBufferedUnderLock passes the channel to a callee, forfeiting the
// local-producer proof: an unknown producer could have filled the buffer.
func (s *S) LeakedBufferedUnderLock() {
	done := make(chan int, 1)
	fill(done)
	s.mu.Lock()
	done <- 1 // want `channel send while \(\*a\.S\)\.mu is held`
	s.mu.Unlock()
}

func fill(ch chan int) {
	select {
	case ch <- 0:
	default:
	}
}

// NoLockNoReport: all the blocking shapes are fine with nothing held.
func (s *S) NoLockNoReport(other chan int) {
	s.ch <- 1
	<-s.ch
	s.wg.Wait()
	select {
	case v := <-s.ch:
		_ = v
	case other <- 1:
	}
}

// SpawnedBlockingIsNotTheSpawner: the pusher-goroutine pattern — the
// literal parks on the channel, but the spawner returns immediately, so
// calling Spawn under a lock is fine (no MayPark propagation from
// go-literals).
func (s *S) Spawn() {
	go func() {
		for range s.ch {
		}
	}()
}

func (s *S) CallSpawnUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Spawn()
}
