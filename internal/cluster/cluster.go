package cluster

import (
	"fmt"
	"net"
	"sync"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/faultnet"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
	"namecoherence/internal/treespec"
)

// Cluster is a sharded deployment of one logical naming graph: every
// top-level prefix of the spec is served by exactly one shard, each shard
// by one or more replica servers, and all shards live in one World so
// coherence across them is a meaningful, checkable property. Replicas of a
// shard serve replicas of the same subtree (registered in replica groups),
// so any replica can answer for its shard — weak coherence by construction.
type Cluster struct {
	// World holds every shard's entities.
	World *core.World
	// Trees are the per-shard primary subtrees, indexed by shard.
	Trees []*dirtree.Tree
	// ReplicaTrees are every replica's subtree, indexed [shard][replica];
	// ReplicaTrees[i][0] == Trees[i].
	ReplicaTrees [][]*dirtree.Tree
	// Plan records how the spec was split and routed.
	Plan *treespec.ShardPlan

	// catchUps and recovered are filled during construction (before any
	// server goroutine starts) and immutable afterwards, as are routes,
	// servers, listeners and replicators (per shard, replicated clusters
	// only), which NewReplicated publishes once it has built them all.
	catchUps    []CatchUpStat
	recovered   []recoveredShard
	routes      *nameserver.RouteInfo
	servers     [][]*nameserver.Server
	listeners   [][]*faultnet.Listener
	replicators []*replicator

	// snap is the store WithSnapStore named (nil without one); cursors[i]
	// is where shard i's snapshots stand in it, guarded by flushMu, which
	// serialises every flush: the periodic loop's and Close's.
	snap    *snapstore.Store
	flushMu sync.Mutex
	cursors []snapCursor

	stop      chan struct{}  // closed by Close to end the flush loop; nil when there is none
	wg        sync.WaitGroup // the serve goroutines and the flush loop
	closeOnce sync.Once
}

type serverOptsOption struct{ opts []nameserver.ServerOption }

func (o serverOptsOption) apply(opts *options) {
	opts.serverOpts = append(opts.serverOpts, o.opts...)
}

// WithServerOptions passes options through to every replica server of
// every shard — e.g. nameserver.WithReadOnly() to serve a frozen cluster.
func WithServerOptions(o ...nameserver.ServerOption) Option {
	return serverOptsOption{opts: o}
}

type listenAddrOption string

func (o listenAddrOption) apply(opts *options) { opts.listenAddr = string(o) }

// WithListenAddr sets the address shard 0's primary listens on, so a
// deployment can put its bootstrap member on a well-known port. Every
// other server stays on an ephemeral loopback port.
func WithListenAddr(addr string) Option {
	return listenAddrOption(addr)
}

// New splits spec across the given number of shards and serves each shard
// on its own TCP loopback listener. Every server watches its subtree (so
// binding changes bump that shard's revision) and carries the cluster's
// routing table for client bootstrap.
func New(w *core.World, spec string, shards int, opts ...Option) (*Cluster, error) {
	return NewReplicated(w, spec, shards, 1, opts...)
}

// NewReplicated is New with replicas servers per shard. Each replica gets
// an independent copy of the shard's subtree, built in the same World with
// corresponding entities registered as replica groups, and its own
// listener wrapped in a fault injector (see Fault) so tests and
// experiments can take replicas down deterministically. The routing table
// lists every replica, so failover clients can try them all. One shard
// with one replica is a valid cluster: it is how nsd serves a lone server.
func NewReplicated(w *core.World, spec string, shards, replicas int, opts ...Option) (*Cluster, error) {
	plan, err := treespec.Split(spec, shards)
	if err != nil {
		return nil, err
	}
	if replicas < 1 {
		return nil, fmt.Errorf("replica count %d: need at least 1", replicas)
	}
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	c := &Cluster{World: w, Plan: plan}
	var cursors []snapCursor
	for i, shardSpec := range plan.Specs {
		trees, enc, err := c.bringUpShard(&o, i, shardSpec, fmt.Sprintf("shard%d", i), replicas)
		if err != nil {
			return nil, fmt.Errorf("build shard %d: %w", i, err)
		}
		c.ReplicaTrees = append(c.ReplicaTrees, trees)
		c.Trees = append(c.Trees, trees[0])
		cursors = append(cursors, snapCursor{enc: enc})
	}
	routes := &nameserver.RouteInfo{
		Prefixes: plan.Prefixes,
		Default:  plan.Default,
		Addrs:    make([]string, shards),
		Replicas: make([][]string, shards),
	}
	servers := make([][]*nameserver.Server, shards)
	listeners := make([][]*faultnet.Listener, shards)
	var replicators []*replicator
	for i, trees := range c.ReplicaTrees {
		for r, tr := range trees {
			srv := nameserver.NewServer(w, tr.RootContext(), o.serverOpts...)
			srv.WatchExport(tr.Root)
			if rev, ok := c.Recovered(i); ok {
				// A restored shard resumes at its snapshot's revision so
				// surviving clients never see the revision move backwards.
				srv.SetRevision(rev)
			}
			listenAddr := "127.0.0.1:0"
			if i == 0 && r == 0 && o.listenAddr != "" {
				listenAddr = o.listenAddr
			}
			ln, err := net.Listen("tcp", listenAddr)
			if err != nil {
				stopServing(replicators, servers)
				c.wg.Wait()
				return nil, fmt.Errorf("listen for shard %d replica %d: %w", i, r, err)
			}
			fln := faultnet.Wrap(ln)
			routes.Replicas[i] = append(routes.Replicas[i], fln.Addr().String())
			servers[i] = append(servers[i], srv)
			listeners[i] = append(listeners[i], fln)
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				srv.Serve(fln)
			}()
		}
		routes.Addrs[i] = routes.Replicas[i][0]
		if replicas > 1 {
			// A replicated shard gets a write replicator: the primary's
			// committed mutations are re-applied on each backup over the wire
			// (through the fault injectors), so backups converge with the
			// primary and the replica groups stay truthful under writes.
			replicators = append(replicators, newReplicator(servers[i][0], routes.Replicas[i][1:]))
		}
	}
	for _, shard := range servers {
		for _, srv := range shard {
			srv.SetRoutes(routes)
		}
	}
	c.routes, c.servers, c.listeners, c.replicators = routes, servers, listeners, replicators
	if o.snap != nil {
		c.snap, c.cursors = o.snap, cursors
		if o.every > 0 {
			c.startFlushLoop(o.every)
		}
	}
	return c, nil
}

// DrainReplication blocks until every write committed so far has been
// applied on every backup replica — every backup's cursor at the head of
// its primary's log: the convergence point to wait on after healing faults
// (a backup that cannot be reached keeps it waiting) and before probing
// coherence. An unreplicated or closed cluster returns immediately.
func (c *Cluster) DrainReplication() {
	for _, r := range c.replicators {
		for _, f := range r.feeds {
			f.Wait()
		}
	}
}

// Shards returns the number of shards.
func (c *Cluster) Shards() int { return len(c.Trees) }

// ReplicasPerShard returns how many replica servers serve each shard.
func (c *Cluster) ReplicasPerShard() int {
	if len(c.ReplicaTrees) == 0 {
		return 0
	}
	return len(c.ReplicaTrees[0])
}

// Routes returns the cluster's routing table (prefix → shard, shard →
// replica addresses).
func (c *Cluster) Routes() *nameserver.RouteInfo { return c.routes.Clone() }

// Addrs returns the shards' primary dial addresses.
func (c *Cluster) Addrs() []string {
	return append([]string(nil), c.routes.Addrs...)
}

// Server returns shard i's primary name server (for revision bumps and
// stats).
func (c *Cluster) Server(i int) *nameserver.Server {
	return c.ReplicaServer(i, 0)
}

// ReplicaServer returns the name server of one replica of shard i.
func (c *Cluster) ReplicaServer(i, r int) *nameserver.Server {
	return c.servers[i][r]
}

// Fault returns the fault injector in front of one replica of shard i.
// Setting it to faultnet.Reset makes the replica look crashed; Hang makes
// it look wedged; Pass heals it.
func (c *Cluster) Fault(i, r int) *faultnet.Listener {
	return c.listeners[i][r]
}

// Metrics is a snapshot of a Cluster's counters, summed over its replicas.
type Metrics struct {
	Served   int // wire requests handled by every replica of every shard
	Resolved int // names resolved by every replica (batch elements count individually)
	// ReplicationPending counts committed writes backups have yet to
	// acknowledge: every backup's lag behind its primary's commit log.
	ReplicationPending int
}

// Metrics sums its servers' metrics and its backups' lag.
func (c *Cluster) Metrics() Metrics {
	var m Metrics
	for _, shard := range c.servers {
		for _, s := range shard {
			sm := s.Metrics()
			m.Served += sm.Served
			m.Resolved += sm.Resolved
		}
	}
	for _, r := range c.replicators {
		for _, f := range r.feeds {
			behind, _, _ := f.Lag()
			m.ReplicationPending += behind
		}
	}
	return m
}

// Close stops the flush loop, the replicators and every replica server of
// every shard, joins the servers, and then, over a snap store, commits every
// shard whose primary's revision is past its manifest entry: the manifest
// is left naming the graph as served, a write acknowledged after the last
// periodic flush included. It returns that flush's error. Only the first
// call does anything; later calls return nil.
func (c *Cluster) Close() error {
	var err error
	c.closeOnce.Do(func() {
		if c.stop != nil {
			close(c.stop)
		}
		stopServing(c.replicators, c.servers)
		c.wg.Wait()
		err = c.flush()
	})
	return err
}

// stopServing stops forwarding before stopping servers, so appliers do not
// spend their timeout retrying into listeners that are going away.
func stopServing(reps []*replicator, servers [][]*nameserver.Server) {
	for _, r := range reps {
		r.close()
	}
	for _, shard := range servers {
		for _, s := range shard {
			s.Close()
		}
	}
}
