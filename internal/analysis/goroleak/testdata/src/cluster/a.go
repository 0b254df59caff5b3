// Package cluster exercises goroleak: every go statement in a serving
// package needs a join — a WaitGroup whose Add precedes the spawn.
// Blocking on a stop signal is no join: the goroutine it wakes can still
// run after Close returns. (The directory is named cluster so the
// testdata package path lands in the analyzer's scope.)
package cluster

import (
	"context"
	"sync"
)

// owner is a long-lived serving type: it has a Close, so its goroutines
// must be joinable before Close returns.
type owner struct {
	wg    sync.WaitGroup
	stop  chan struct{}
	work  chan int
	count int
}

func (o *owner) Close() error {
	close(o.stop)
	o.wg.Wait()
	return nil
}

// okWaitGroup registers with the WaitGroup before spawning.
func (o *owner) okWaitGroup() {
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		o.count++
	}()
}

// badNoAdd signals a WaitGroup nothing ever Added to: Wait can return
// before the goroutine even starts.
func (o *owner) badNoAdd() {
	go func() { // want `goroutine calls o\.wg\.Done, but no o\.wg\.Add precedes the go statement in badNoAdd`
		defer o.wg.Done()
		o.count++
	}()
}

// badAddAfter orders the Add after the spawn, which is the same race.
func (o *owner) badAddAfter() {
	go func() { // want `goroutine calls o\.wg\.Done, but no o\.wg\.Add precedes the go statement in badAddAfter`
		defer o.wg.Done()
		o.count++
	}()
	o.wg.Add(1)
}

// badDone closes a done channel the spawner blocks on. That joins, but
// no serving code joins that way, so goroleak accepts only a WaitGroup.
func (o *owner) badDone() {
	done := make(chan struct{})
	go func() { // want `goroutine in badDone has no join: signal a WaitGroup whose Add precedes the spawn`
		defer close(done)
		o.count++
	}()
	<-done
}

// badDoneStored hands the done channel to another party instead of
// receiving inline: reported like badDone.
func (o *owner) badDoneStored(sink chan<- chan struct{}) {
	done := make(chan struct{})
	go func() { // want `goroutine in badDoneStored has no join: signal a WaitGroup whose Add precedes the spawn`
		defer close(done)
		o.count++
	}()
	sink <- done
}

// badDoneUnused closes a channel nobody outside the goroutine ever sees.
func (o *owner) badDoneUnused() {
	done := make(chan struct{})
	go func() { // want `goroutine in badDoneUnused has no join: signal a WaitGroup whose Add precedes the spawn`
		defer close(done)
		o.count++
	}()
}

// badStop blocks on the owner's stop channel: Close's close(o.stop)
// wakes it, but nothing waits for it to finish, so it can still touch
// the owner after Close returns.
func (o *owner) badStop() {
	go func() { // want `goroutine in badStop has no join: signal a WaitGroup whose Add precedes the spawn`
		<-o.stop
		o.count++
	}()
}

// badStopRange drains a channel until it closes; a stop-like name is no
// join either.
func (o *owner) badStopRange(stopc chan struct{}) {
	go func() { // want `goroutine in badStopRange has no join: signal a WaitGroup whose Add precedes the spawn`
		for range stopc {
		}
	}()
}

// badCtx blocks on a context cancellation, which wakes it but does not
// wait for it.
func (o *owner) badCtx(ctx context.Context) {
	go func() { // want `goroutine in badCtx has no join: signal a WaitGroup whose Add precedes the spawn`
		<-ctx.Done()
		o.count++
	}()
}

// badSendOwner joins only through a send, but owner has a Close method
// that cannot wait on a send.
func (o *owner) badSendOwner() {
	go func() { // want `goroutine joins only through a send on o\.work; badSendOwner's receiver has a Close method, so join it with a WaitGroup that Close waits on`
		o.work <- 1
	}()
}

// badNamed spawns a named function directly; there is nothing to join.
func (o *owner) badNamed() {
	go tick(o) // want `go tick spawns a named function with no join; wrap it in a func literal that signals a WaitGroup`
}

// badNothing has no join discipline at all.
func (o *owner) badNothing() {
	go func() { // want `goroutine in badNothing has no join: signal a WaitGroup whose Add precedes the spawn`
		o.count++
	}()
}

func tick(o *owner) { o.count++ }

// scatter is request-scoped fan-in: no Close on the spawner (a free
// function), so a channel send is an acceptable join.
func scatter(vals []int) int {
	ch := make(chan int, len(vals))
	for _, v := range vals {
		go func() {
			ch <- v * 2
		}()
	}
	total := 0
	for range vals {
		total += <-ch
	}
	return total
}

// okWorkerPool is the per-connection leader/followers pool: each worker
// registers with the local WaitGroup before its spawn and the pool is
// joined before the serve call returns.
func (o *owner) okWorkerPool(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.count++
		}()
	}
	wg.Wait()
}

// okSharedBody spawns a shared named body wrapped in a literal that
// signals the WaitGroup — the shape ResolveBatch uses so its single-shard
// case can run the same body inline on the caller's goroutine.
func (o *owner) okSharedBody(vals []int) {
	body := func(v int) { o.count += v }
	for _, v := range vals {
		if len(vals) == 1 {
			body(v)
			continue
		}
		o.wg.Add(1)
		go func(v int) {
			defer o.wg.Done()
			body(v)
		}(v)
	}
}
