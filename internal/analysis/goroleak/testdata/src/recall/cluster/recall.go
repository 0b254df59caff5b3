// Package cluster reproduces the shape of the goroutine leak goroleak
// caught in cluster.Client.ResolveBatch, its per-shard fan-out, beside the
// form it was fixed to. The buggy spawns must keep firing and the shipped
// form must stay silent. (The directory is named cluster so the package
// path lands in the analyzer's scope.)
package cluster

import "sync"

// Client is the fan-out's owner: Close must not return while a shard
// goroutine still touches the client.
type Client struct {
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// Close flips closed under the mutex, then waits for the shard goroutines
// registered before it.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wg.Wait()
}

// batchAtShard stands in for one shard's wire batch.
func (c *Client) batchAtShard(shard int, keys []string) []string { return keys }

// answer is one shard's outcome, sent back to the fanning-in caller.
type answer struct {
	shard   int
	results []string
}

// ResolveBatchUnjoined is the fan-out as goroleak first found it: each
// shard goroutine joins only through its send on answers, so Close could
// return while one was still on the wire.
func (c *Client) ResolveBatchUnjoined(work map[int][]string) {
	answers := make(chan answer, len(work))
	for shard, keys := range work {
		go func(shard int, keys []string) { // want `goroutine joins only through a send on answers; ResolveBatchUnjoined's receiver has a Close method, so join it with a WaitGroup that Close waits on`
			answers <- answer{shard: shard, results: c.batchAtShard(shard, keys)}
		}(shard, keys)
	}
	for range work {
		<-answers
	}
}

// ResolveBatchAddAfterSpawn joins through the WaitGroup but registers each
// goroutine after spawning it, so Close's Wait can see zero and return
// before a goroutine that is already running.
func (c *Client) ResolveBatchAddAfterSpawn(work map[int][]string) {
	answers := make(chan answer, len(work))
	for shard, keys := range work {
		go func(shard int, keys []string) { // want `goroutine calls c\.wg\.Done, but no c\.wg\.Add precedes the go statement in ResolveBatchAddAfterSpawn`
			defer c.wg.Done()
			answers <- answer{shard: shard, results: c.batchAtShard(shard, keys)}
		}(shard, keys)
		c.wg.Add(1)
	}
	for range work {
		<-answers
	}
}

// ResolveBatch is the shipped form: every shard goroutine is added to the
// join group under the mutex that Close flips closed under, before any is
// spawned, and a lone shard runs on the caller's goroutine.
func (c *Client) ResolveBatch(work map[int][]string) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.wg.Add(len(work))
	c.mu.Unlock()
	answers := make(chan answer, len(work))
	runShard := func(shard int, keys []string) {
		answers <- answer{shard: shard, results: c.batchAtShard(shard, keys)}
	}
	for shard, keys := range work {
		if len(work) == 1 {
			func() {
				defer c.wg.Done()
				runShard(shard, keys)
			}()
			continue
		}
		go func(shard int, keys []string) {
			defer c.wg.Done()
			runShard(shard, keys)
		}(shard, keys)
	}
	for range work {
		<-answers
	}
}
