// Command nsd is a standalone name-server daemon: it builds a naming tree
// from a treespec file (or a built-in demo tree) and serves resolution
// requests over TCP until interrupted. Every deployment shape is one
// cluster (internal/cluster): by default one shard with one replica,
// listening on -addr. With -shard N it partitions the tree across N name
// servers by prefix and serves all of them on ephemeral loopback ports,
// printing the routing table; any member can bootstrap an nsq client, as
// -addr bootstraps one against the default shape. With -replicas R every shard is served by R replica servers
// holding replicas of the same subtree, so clients can fail over when one
// dies.
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
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
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

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nsd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	// Register for shutdown signals before any long setup (restore of a
	// large store, listener bring-up): a SIGTERM delivered during startup
	// must still shut the daemon down instead of killing it mid-write.
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(interrupt)

	fs := flag.NewFlagSet("nsd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7474", "listen address (without -shard/-replicas)")
	specPath := fs.String("spec", "", "treespec file to serve (default: built-in demo)")
	dump := fs.Bool("dump", false, "print the served tree's spec and exit")
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
	if *snapInterval < 0 {
		return fmt.Errorf("-snap-interval %v: must be >= 0", *snapInterval)
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
		return treespec.Dump(tr, out)
	}

	var opts []cluster.Option
	if *dataDir != "" {
		st, err := snapstore.Open(*dataDir)
		if err != nil {
			return fmt.Errorf("open snapshot store: %w", err)
		}
		opts = append(opts, cluster.WithSnapStore(st, *snapInterval))
	}
	if *readonly {
		opts = append(opts, cluster.WithServerOptions(nameserver.WithReadOnly()))
	}
	// A lone server is the deployment with a well-known address. Every
	// other shape announces its ephemeral ports in the routing table.
	lone := *shards == 1 && *replicas == 1
	if lone {
		opts = append(opts, cluster.WithListenAddr(*addr))
	}
	cl, err := cluster.NewReplicated(w, spec, *shards, *replicas, opts...)
	if err != nil {
		return err
	}
	for i := 0; i < cl.Shards(); i++ {
		if rev, ok := cl.Recovered(i); ok {
			fmt.Fprintf(out, "recovered shard %d at revision %d\n", i, rev)
		}
	}
	for _, s := range cl.CatchUps() {
		fmt.Fprintf(out, "caught up shard %d replica %d: %d blobs fetched, %d subtrees already present\n",
			s.Shard, s.Replica, s.Copied, s.Skipped)
	}
	if lone {
		fmt.Fprintf(out, "nsd serving on %s (interrupt to stop)\n", cl.Addrs()[0])
	} else {
		printRoutes(out, cl)
	}

	<-interrupt
	fmt.Fprintln(out, "shutting down")
	// With -data, Close's final flush leaves the manifest naming the graph
	// as served.
	if err := cl.Close(); err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	m := cl.Metrics()
	fmt.Fprintf(out, "served %d requests (%d names)\n", m.Served, m.Resolved)
	return nil
}

// printRoutes prints the routing table clients bootstrap from; the last
// line means every member is accepting connections.
func printRoutes(out io.Writer, cl *cluster.Cluster) {
	routes := cl.Routes()
	fmt.Fprintf(out, "nsd serving %d shards x %d replicas (interrupt to stop)\n",
		cl.Shards(), cl.ReplicasPerShard())
	for i := range routes.Addrs {
		fmt.Fprintf(out, "  shard %d: %s\n", i, strings.Join(routes.ReplicaAddrs(i), " "))
	}
	prefixes := make([]string, 0, len(routes.Prefixes))
	for p := range routes.Prefixes {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, p := range prefixes {
		fmt.Fprintf(out, "  /%s -> shard %d\n", p, routes.Prefixes[p])
	}
	fmt.Fprintf(out, "  default -> shard %d\n", routes.Default)
	fmt.Fprintf(out, "bootstrap: nsq -cluster -addr %s <path>...\n", routes.Addrs[0])
}
