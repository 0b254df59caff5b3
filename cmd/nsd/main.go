// Command nsd is a standalone name-server daemon: it builds a naming tree
// from a treespec file (or a built-in demo tree) and serves resolution
// requests over TCP until interrupted. With -shard N it partitions the
// tree across N name servers by prefix and serves all of them, printing
// the routing table; any member can bootstrap an nsq -cluster client.
// With -replicas R every shard is served by R replica servers holding
// replicas of the same subtree, so clients can fail over when one dies.
//
// With -data DIR the daemon keeps a durable content-addressed snapshot
// store in DIR: the naming graph is committed there periodically (see
// -snap-interval) and once more on graceful shutdown (SIGINT/SIGTERM),
// and a restart recovers the graph from DIR — at the committed revision —
// instead of rebuilding from the spec.
//
// Usage:
//
//	nsd                          # demo tree on 127.0.0.1:7474
//	nsd -addr :9000 -spec t.spec # serve a spec file
//	nsd -shard 4                 # serve the demo tree from 4 shards
//	nsd -shard 4 -replicas 2     # ...with 2 replica servers per shard
//	nsd -data /var/lib/nsd       # durable snapshots + crash recovery
//	nsd -dump                    # print the served tree's spec and exit
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"namecoherence/internal/cas"
	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/snapstore"
	"namecoherence/internal/treespec"
)

const demoSpec = `
dir /usr/bin
file /usr/bin/ls "#!ls"
file /usr/bin/cat "#!cat"
file /etc/passwd "root:0:staff"
file /etc/motd "welcome to nsd"
dir /home/alice
file /home/alice/notes "todo: read ICDCS'93"
link /mnt /usr
`

// testHookServing, when set (tests only), receives the primary listen
// address once the daemon is accepting connections.
var testHookServing func(addr string)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// Register for shutdown signals before any long setup (restore of a
	// large store, listener bring-up): a SIGTERM delivered during startup
	// must still shut the daemon down instead of killing it mid-write.
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(interrupt)

	fs := flag.NewFlagSet("nsd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7474", "listen address (single-server mode)")
	specPath := fs.String("spec", "", "treespec file to serve (default: built-in demo)")
	dump := fs.Bool("dump", false, "print the served tree's spec and exit")
	watch := fs.Bool("watch", true, "bump the revision on binding changes (coherent caches)")
	readonly := fs.Bool("readonly", false, "refuse wire mutations (bind/unbind/mkcontext)")
	shards := fs.Int("shard", 1, "partition the tree across this many prefix shards")
	replicas := fs.Int("replicas", 1, "serve each shard from this many replica servers")
	dataDir := fs.String("data", "", "durable snapshot directory (enables crash recovery)")
	snapInterval := fs.Duration("snap-interval", 10*time.Second,
		"periodic snapshot interval with -data (0 disables periodic snapshots)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("-shard %d: need at least 1", *shards)
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas %d: need at least 1", *replicas)
	}

	spec := demoSpec
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		spec = string(data)
	}

	w := core.NewWorld()
	if *dump {
		tr, err := treespec.Build(spec, w, "nsd")
		if err != nil {
			return err
		}
		return treespec.Dump(tr, os.Stdout)
	}

	var st *snapstore.Store
	var keeper *snapstore.Keeper
	if *dataDir != "" {
		var err error
		st, err = snapstore.Open(*dataDir)
		if err != nil {
			return fmt.Errorf("open snapshot store: %w", err)
		}
		keeper = snapstore.NewKeeper(st, *snapInterval)
	}

	if *shards > 1 || *replicas > 1 {
		return runSharded(w, spec, *shards, *replicas, *readonly, st, keeper, interrupt)
	}

	// Single-server mode: recover the tree from the store when it holds a
	// committed root, else build from the spec and commit the first root.
	var tr *dirtree.Tree
	var recoveredRev uint64
	recovered := false
	if st != nil {
		if last, ok := st.Latest(0); ok {
			root, err := last.RootHash()
			if err != nil {
				return fmt.Errorf("manifest: %w", err)
			}
			tr, err = st.Restore(root, w, "nsd")
			if err != nil {
				return fmt.Errorf("recover naming graph: %w", err)
			}
			recoveredRev, recovered = last.Rev, true
			fmt.Printf("recovered naming graph %s at revision %d from %s\n",
				root, last.Rev, *dataDir)
		}
	}
	if tr == nil {
		var err error
		tr, err = treespec.Build(spec, w, "nsd")
		if err != nil {
			return err
		}
		if st != nil {
			root, err := st.Snapshot(w, tr.Root)
			if err != nil {
				return fmt.Errorf("initial snapshot: %w", err)
			}
			if err := st.Commit(0, 0, root); err != nil {
				return fmt.Errorf("commit initial snapshot: %w", err)
			}
			fmt.Printf("committed initial snapshot %s to %s\n", root, *dataDir)
		}
	}

	var srvOpts []nameserver.ServerOption
	if *readonly {
		srvOpts = append(srvOpts, nameserver.WithReadOnly())
	}
	server := nameserver.NewServer(w, tr.RootContext(), srvOpts...)
	if recovered {
		server.SetRevision(recoveredRev)
	}
	if *watch {
		watched := server.WatchExport(tr.Root)
		fmt.Printf("watching %d directories for binding changes\n", watched)
	}
	if keeper != nil {
		// The snap runs under the server's write lock: a wire mutation can
		// not land between reading the revision and walking the tree, so the
		// committed snapshot is exactly the state at that revision.
		keeper.Track(0, server.Revision, func() (h cas.Hash, rev uint64, err error) {
			server.Stable(func() {
				rev = server.Revision()
				h, err = st.Snapshot(w, tr.Root)
			})
			return h, rev, err
		})
		keeper.Start()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("nsd serving on %s (interrupt to stop)\n", ln.Addr())
	if testHookServing != nil {
		testHookServing(ln.Addr().String())
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		server.Serve(ln)
	}()
	<-interrupt
	fmt.Println("shutting down")
	server.Close()
	<-done
	if keeper != nil {
		// Final flush: the manifest leaves naming the graph as served.
		if err := keeper.Close(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		if last, ok := st.Latest(0); ok {
			fmt.Printf("final snapshot %s at revision %d\n", last.Root, last.Rev)
		}
	}
	fmt.Printf("served %d requests\n", server.Served())
	return nil
}

// runSharded serves the spec from a prefix-partitioned, optionally
// replicated cluster and prints the routing table clients bootstrap from.
func runSharded(w *core.World, spec string, shards, replicas int, readonly bool,
	st *snapstore.Store, keeper *snapstore.Keeper, interrupt chan os.Signal) error {
	var opts []cluster.Option
	if st != nil {
		opts = append(opts, cluster.WithSnapStore(st))
	}
	if readonly {
		opts = append(opts, cluster.WithServerOptions(nameserver.WithReadOnly()))
	}
	cl, err := cluster.NewReplicated(w, spec, shards, replicas, opts...)
	if err != nil {
		return err
	}
	for i := 0; i < cl.Shards(); i++ {
		if rev, ok := cl.Recovered(i); ok {
			fmt.Printf("recovered shard %d at revision %d\n", i, rev)
		}
	}
	for _, s := range cl.CatchUps() {
		fmt.Printf("caught up shard %d replica %d: %d blobs fetched, %d subtrees already present\n",
			s.Shard, s.Replica, s.Copied, s.Skipped)
	}
	if keeper != nil {
		for i := 0; i < cl.Shards(); i++ {
			i := i
			srv := cl.Server(i)
			keeper.Track(i, srv.Revision, func() (h cas.Hash, rev uint64, err error) {
				// Under the primary's write lock, so a wire mutation can not
				// tear the snapshot between revision read and tree walk.
				srv.Stable(func() {
					rev = srv.Revision()
					h, err = cl.ShardRoot(st, i, 0)
				})
				return h, rev, err
			})
		}
		keeper.Start()
	}
	routes := cl.Routes()
	fmt.Printf("nsd serving %d shards x %d replicas (interrupt to stop)\n",
		cl.Shards(), cl.ReplicasPerShard())
	for i := range routes.Addrs {
		fmt.Printf("  shard %d: %s\n", i, strings.Join(routes.ReplicaAddrs(i), " "))
	}
	prefixes := make([]string, 0, len(routes.Prefixes))
	for p := range routes.Prefixes {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, p := range prefixes {
		fmt.Printf("  /%s -> shard %d\n", p, routes.Prefixes[p])
	}
	fmt.Printf("  default -> shard %d\n", routes.Default)
	fmt.Printf("bootstrap: nsq -cluster -addr %s <path>...\n", routes.Addrs[0])
	if testHookServing != nil {
		testHookServing(routes.Addrs[0])
	}

	<-interrupt
	fmt.Println("shutting down")
	cl.Close()
	if keeper != nil {
		if err := keeper.Close(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
	}
	fmt.Printf("served %d requests (%d names)\n", cl.Served(), cl.Resolved())
	return nil
}
