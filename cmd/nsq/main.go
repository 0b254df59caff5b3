// Command nsq queries a running nsd name server: it resolves each path
// argument and prints the resulting entity (or error). With -cluster it
// bootstraps the routing table from the given address (any member of an
// nsd -shard cluster) and routes each name to its shard; -batch resolves
// all arguments with one round-trip per shard. Cluster requests run under
// a deadline (-timeout) with bounded retry (-retries) and automatic
// failover across an nsd -replicas deployment's replica servers.
//
// The first argument may be a mutation verb: "bind PATH TARGET" binds
// PATH to the entity TARGET resolves to, "unbind PATH" removes the
// binding, "mkcontext PATH" creates a directory. In cluster mode writes
// route to the owning shard's primary. -cache N is the wire client's plain
// cache, never invalidated; with -cluster it is the revision-tracked
// per-shard cache, against a lone nsd too (one shard is a valid cluster).
// Both evict by SIEVE (internal/lru). -push
// subscribes the client for server-pushed invalidations before resolving.
// Without -cluster it prints each frame as it is consumed, and purges
// nothing: "rev N: dir #ID name" for a commit that rebound one
// non-directory name, "rev N: everything" for any other — what this
// subscriber was told, and when it stopped being stale. With -cluster the
// frames print nothing; they purge the cache (with -cache -n, where
// repeated reads would otherwise revalidate by poll). Either way the run
// ends with the number of frames consumed ("push: N invalidations").
//
// Usage:
//
//	nsq /usr/bin/ls /etc/passwd
//	nsq -addr 127.0.0.1:9000 -cache 16 -n 3 /usr/bin/ls
//	nsq bind /usr/bin/ls2 /usr/bin/ls
//	nsq mkcontext /usr/local && nsq bind /usr/local/tool /usr/bin/ls
//	nsq unbind /usr/bin/ls2
//	nsq -cluster -addr 127.0.0.1:40001 -batch /usr/bin/ls /etc/passwd
//	nsq -cluster -addr 127.0.0.1:40001 -timeout 500ms -retries 3 /etc/passwd
//	nsq -cluster -addr 127.0.0.1:40001 bind /usr/bin/ls2 /usr/bin/ls
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nsq:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nsq", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7474", "server address (any cluster member with -cluster)")
	cacheSize := fs.Int("cache", 0, "client cache size (0 = none); revision-tracked with -cluster, never invalidated without")
	repeat := fs.Int("n", 1, "resolve each path this many times")
	clustered := fs.Bool("cluster", false, "treat -addr as a sharded-cluster member and route by prefix")
	batch := fs.Bool("batch", false, "with -cluster: resolve all paths in one round-trip per shard")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request deadline (0 = none)")
	retries := fs.Int("retries", 2, "with -cluster: extra attempts after a transport failure")
	push := fs.Bool("push", false, "subscribe for server-pushed invalidation frames: print each one, or with -cluster purge the cache by them unprinted; then print their count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no paths given")
	}
	if *batch && !*clustered {
		return fmt.Errorf("-batch requires -cluster")
	}
	if *retries < 0 {
		return fmt.Errorf("-retries %d: must be >= 0", *retries)
	}
	verb, rest, err := splitVerb(fs.Args())
	if err != nil {
		return err
	}
	if *clustered {
		return runCluster(*addr, *cacheSize, *batch, *repeat, *timeout, *retries, *push, verb, rest)
	}

	var opts []nameserver.ClientOption
	if *cacheSize > 0 {
		opts = append(opts, nameserver.WithCache(*cacheSize))
	}
	if *timeout > 0 {
		opts = append(opts, nameserver.WithTimeout(*timeout))
	}
	client, err := nameserver.Dial("tcp", *addr, opts...)
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	if verb != "" {
		return mutateSingle(client, verb, rest)
	}
	if *push {
		if _, err := client.SubscribeFrames(func(iv nameserver.Invalidation) {
			fmt.Println(describeFrame(iv))
		}); err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
	}
	for i := 0; i < *repeat; i++ {
		for _, arg := range rest {
			_, p := core.SplitPathString(arg)
			e, err := client.Resolve(p)
			if err != nil {
				fmt.Printf("%-30s -> error: %v\n", arg, err)
				continue
			}
			fmt.Printf("%-30s -> %v\n", arg, e)
		}
	}
	if *cacheSize > 0 {
		m := client.Metrics()
		fmt.Printf("cache: %d hits, %d misses\n", m.Hits, m.Misses)
	}
	if *push {
		fmt.Printf("push: %d invalidations\n", client.Metrics().Invalidations)
	}
	return nil
}

// describeFrame renders one consumed push frame: what the server said
// changed at that revision.
func describeFrame(iv nameserver.Invalidation) string {
	if iv.Dir == 0 {
		return fmt.Sprintf("rev %d: everything", iv.Rev)
	}
	return fmt.Sprintf("rev %d: dir #%d %s", iv.Rev, iv.Dir, iv.Name)
}

// splitVerb peels a leading mutation verb off the positional arguments
// and checks its operand count: bind PATH TARGET, unbind PATH,
// mkcontext PATH. No verb means every argument is a path to resolve.
func splitVerb(args []string) (verb string, rest []string, err error) {
	switch args[0] {
	case "bind":
		if len(args) != 3 {
			return "", nil, fmt.Errorf("bind: need PATH TARGET")
		}
	case "unbind", "mkcontext":
		if len(args) != 2 {
			return "", nil, fmt.Errorf("%s: need PATH", args[0])
		}
	default:
		return "", args, nil
	}
	return args[0], args[1:], nil
}

// splitDirName separates a mutation operand into the directory path and
// the final name being bound, unbound, or created.
func splitDirName(arg string) (core.Path, core.Name, error) {
	_, p := core.SplitPathString(arg)
	if len(p) == 0 {
		return nil, "", fmt.Errorf("%q: empty path", arg)
	}
	return p[:len(p)-1], p[len(p)-1], nil
}

// mutateSingle applies one mutation verb through a single-server client.
func mutateSingle(client *nameserver.Client, verb string, args []string) error {
	dir, name, err := splitDirName(args[0])
	if err != nil {
		return err
	}
	switch verb {
	case "bind":
		_, tp := core.SplitPathString(args[1])
		target, err := client.Resolve(tp)
		if err != nil {
			return fmt.Errorf("resolve target %s: %w", args[1], err)
		}
		rev, err := client.Bind(dir, name, target)
		if err != nil {
			return err
		}
		fmt.Printf("bound %s -> %v (revision %d)\n", args[0], target, rev)
	case "unbind":
		rev, err := client.Unbind(dir, name)
		if err != nil {
			return err
		}
		fmt.Printf("unbound %s (revision %d)\n", args[0], rev)
	case "mkcontext":
		e, rev, err := client.Mkcontext(dir, name)
		if err != nil {
			return err
		}
		fmt.Printf("made context %s -> %v (revision %d)\n", args[0], e, rev)
	}
	return nil
}

// mutateCluster applies one mutation verb through a cluster client; the
// write routes to the owning shard's primary replica.
func mutateCluster(client *cluster.Client, verb string, args []string) error {
	dir, name, err := splitDirName(args[0])
	if err != nil {
		return err
	}
	switch verb {
	case "bind":
		_, tp := core.SplitPathString(args[1])
		target, err := client.Resolve(tp)
		if err != nil {
			return fmt.Errorf("resolve target %s: %w", args[1], err)
		}
		if err := client.Bind(dir, name, target); err != nil {
			return err
		}
		fmt.Printf("bound %s -> %v\n", args[0], target)
	case "unbind":
		if err := client.Unbind(dir, name); err != nil {
			return err
		}
		fmt.Printf("unbound %s\n", args[0])
	case "mkcontext":
		e, err := client.Mkcontext(dir, name)
		if err != nil {
			return err
		}
		fmt.Printf("made context %s -> %v\n", args[0], e)
	}
	return nil
}

// runCluster resolves the paths through a sharded-cluster client
// bootstrapped from one member address. The cluster cache is always the
// revision-tracked per-shard cache; requests run under the deadline and
// retry/failover policy.
func runCluster(addr string, cacheSize int, batch bool, repeat int,
	timeout time.Duration, retries int, push bool, verb string, args []string) error {
	opts := []cluster.ClientOption{
		cluster.WithTimeout(timeout),
		cluster.WithRetries(retries),
	}
	if cacheSize > 0 {
		opts = append(opts, cluster.WithLRU(cacheSize))
	}
	if push {
		opts = append(opts, cluster.WithPushInvalidation())
	}
	client, err := cluster.Dial("tcp", addr, opts...)
	if err != nil {
		return err
	}
	defer client.Close()

	if verb != "" {
		return mutateCluster(client, verb, args)
	}

	routes := client.Routes()
	if routes.Replicas != nil {
		fmt.Printf("cluster: %d shards x %d replicas via %s\n",
			len(routes.Addrs), len(routes.ReplicaAddrs(0)), addr)
	} else {
		fmt.Printf("cluster: %d shards via %s\n", len(routes.Addrs), addr)
	}

	paths := make([]core.Path, len(args))
	for i, arg := range args {
		_, paths[i] = core.SplitPathString(arg)
	}
	for i := 0; i < repeat; i++ {
		if batch {
			results, err := client.ResolveBatch(paths)
			if err != nil {
				return err
			}
			for j, res := range results {
				if res.Err != nil {
					fmt.Printf("%-30s -> error: %v\n", args[j], res.Err)
					continue
				}
				fmt.Printf("%-30s -> %v\n", args[j], res.Entity)
			}
			continue
		}
		for j, p := range paths {
			e, err := client.Resolve(p)
			if err != nil {
				fmt.Printf("%-30s -> error: %v\n", args[j], err)
				continue
			}
			fmt.Printf("%-30s -> %v\n", args[j], e)
		}
	}
	if cacheSize > 0 {
		m := client.Metrics()
		fmt.Printf("cache: %d hits, %d misses\n", m.Hits, m.Misses)
	}
	if push {
		fmt.Printf("push: %d invalidations\n", client.Metrics().Invalidations)
	}
	return nil
}
