package main

import (
	"fmt"
	"time"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
)

// workload is one traffic mix against one nsd configuration. The names are
// API: BENCHMARK.json and later issues cite them.
type workload struct {
	name string
	why  string
	// sharded runs nsd -shard 2 -replicas 2 and drives it through
	// cluster.Clients; otherwise one nsd and nameserver.Clients.
	sharded bool
	// durable adds -data <tmp> -snap-interval 2s.
	durable bool
	// callers is the number of closed-loop callers sharing the one reader
	// client (and so, per shard, its one connection).
	callers int
	// zipf draws names Zipf(1.1) and makes every 8th op a batch of 16;
	// otherwise names are uniform and every op resolves one name.
	zipf bool
	// lru is the reader's cache size in entries (sharded only).
	lru int
	// push subscribes the reader for push invalidation (sharded only).
	push bool
	// writeFrom is the share of the measured time that passes before the
	// open-loop writer starts. Read metrics are taken before that point,
	// write metrics after it; 0 means both cover the whole run.
	writeFrom float64
}

// writeRate is the open-loop writer's schedule: one Unbind+Bind cycle
// every 5ms, whatever the system's speed.
const writeRate = 200

var workloads = []workload{
	{
		name: "serial-uniform", callers: 1, writeFrom: 0.75,
		why: "one caller, nothing in flight: per-call fixed cost (syscalls, token handoffs) is all of the time; core, lru and cluster do nothing",
	},
	{
		name: "pipelined-uniform", callers: 64, writeFrom: 0.75,
		why: "64 callers on one connection: flush elision, leader decode and the server's worker pool amortise per-frame cost; both processes CPU-bound",
	},
	{
		name: "cluster-zipf", sharded: true, callers: 2, zipf: true, lru: 4096, writeFrom: 0.75,
		why: "Zipf names through route+LRU+singleflight, cache 12.5% of names: the wire is touched on misses only, so it bypasses wire work and exercises cluster/lru",
	},
	{
		name: "churn-push", sharded: true, durable: true, callers: 1, zipf: true, lru: 4096, push: true,
		why: "200 rebinds/s beside a push-subscribed cached reader, snapshots every 2s: prices writes, pushes and purges that share the read path's locks and caches",
	},
}

func workloadNamed(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func (wl workload) nsdArgs(spec, dataDir string) []string {
	args := []string{"-spec", spec}
	if wl.sharded {
		args = append(args, "-shard", "2", "-replicas", "2")
	} else {
		args = append(args, "-addr", "127.0.0.1:0")
	}
	if wl.durable {
		args = append(args, "-data", dataDir, "-snap-interval", "2s")
	}
	return args
}

// stream is the seeded name stream the workload's callers draw from.
func (in *inputs) stream(wl workload) []uint32 {
	if wl.zipf {
		return in.zipf
	}
	return in.uniform
}

// resolver is the read side both client stacks share.
type resolver interface {
	Resolve(core.Path) (core.Entity, error)
	ResolveBatch([]core.Path) ([]nameserver.BatchResult, error)
}

// client is one connection-owning client of either stack, reduced to what
// the generator calls.
type client struct {
	resolver
	unbind  func(dir core.Path, name core.Name) error
	bind    func(dir core.Path, name core.Name, target core.Entity) error
	close   func()
	cluster *cluster.Client // nil on single-server workloads
}

// dial connects a reader (with the workload's cache and subscription) or a
// writer (bare) to the nsd at addr.
func (wl workload) dial(addr string, reading bool) (*client, error) {
	if !wl.sharded {
		c, err := nameserver.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &client{
			resolver: c,
			unbind:   func(d core.Path, n core.Name) error { _, err := c.Unbind(d, n); return err },
			bind:     func(d core.Path, n core.Name, t core.Entity) error { _, err := c.Bind(d, n, t); return err },
			close:    func() { _ = c.Close() },
		}, nil
	}
	var opts []cluster.ClientOption
	if reading && wl.lru > 0 {
		opts = append(opts, cluster.WithLRU(wl.lru))
	}
	if reading && wl.push {
		opts = append(opts, cluster.WithPushInvalidation())
	}
	c, err := cluster.Dial("tcp", addr, opts...)
	if err != nil {
		return nil, err
	}
	return &client{resolver: c, unbind: c.Unbind, bind: c.Bind, close: c.Close, cluster: c}, nil
}

// primeBatch is the batch size of the untimed priming pass.
const primeBatch = 256

// prime resolves every leaf once through r and returns the entities: the
// answers every timed resolution is checked against.
func prime(r resolver, in *inputs) ([]core.Entity, error) {
	want := make([]core.Entity, len(in.leaves))
	for lo := 0; lo < len(in.leaves); lo += primeBatch {
		res, err := r.ResolveBatch(in.leaves[lo : lo+primeBatch])
		if err != nil {
			return nil, fmt.Errorf("prime: %w", err)
		}
		for i, br := range res {
			if br.Err != nil {
				return nil, fmt.Errorf("prime %v: %w", in.leaves[lo+i], br.Err)
			}
			want[lo+i] = br.Entity
		}
	}
	return want, nil
}

// instance is one set-up system: spec written, nsd serving, reader dialed
// and primed.
type instance struct {
	dir     string
	args    []string
	proc    *child
	reader  *client
	want    []core.Entity
	targets [2]core.Entity // what the victims toggle between
	// bound is victim → index of the target its last acknowledged Bind set.
	bound [numVictim]int
	took  time.Duration
	slow  float64 // the echo's slowdown measured just before this set-up
}

func (it *instance) tearDown() {
	if it.reader != nil {
		it.reader.close()
	}
	if it.proc != nil {
		it.proc.kill()
	}
	removeDir(it.dir)
}
