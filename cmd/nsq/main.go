// Command nsq queries a running nsd: it resolves each path argument and
// prints the resulting entity (or error). Every nsd is a cluster (one
// shard with one replica is the smallest), so nsq bootstraps the routing
// table from the given address — any member — and routes each name to its
// shard; -batch resolves all arguments with one round-trip per shard.
// Requests run under a deadline (-timeout) with bounded retry (-retries)
// and automatic failover across an nsd -replicas deployment's replica
// servers.
//
// The first argument may be a mutation verb: "bind PATH TARGET" binds
// PATH to the entity TARGET resolves to, "unbind PATH" removes the
// binding, "mkcontext PATH" creates a directory. Writes route to the
// owning shard's primary. -cache N is the revision-tracked per-shard cache
// (SIEVE eviction, internal/lru): a response that carries a newer revision
// than the cache is current to purges the shard's entries. -push
// subscribes the client for server-pushed invalidation frames, which purge
// the cache as the writes commit (with -cache -n, where repeated reads
// would otherwise revalidate by poll); the run ends with the number of
// frames consumed ("push: N invalidations"). -cluster is accepted and
// changes nothing: nsd's bootstrap line and bench/nsload still pass it.
//
// Usage:
//
//	nsq /usr/bin/ls /etc/passwd
//	nsq -addr 127.0.0.1:9000 -cache 16 -n 3 /usr/bin/ls
//	nsq bind /usr/bin/ls2 /usr/bin/ls
//	nsq mkcontext /usr/local && nsq bind /usr/local/tool /usr/bin/ls
//	nsq unbind /usr/bin/ls2
//	nsq -addr 127.0.0.1:40001 -batch /usr/bin/ls /etc/passwd
//	nsq -addr 127.0.0.1:40001 -timeout 500ms -retries 3 /etc/passwd
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nsq:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("nsq", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7474", "address of any cluster member")
	cacheSize := fs.Int("cache", 0, "revision-tracked client cache size (0 = none)")
	repeat := fs.Int("n", 1, "resolve each path this many times")
	fs.Bool("cluster", false, "no effect: every nsd serves a routing table, and nsq always routes by it")
	batch := fs.Bool("batch", false, "resolve all paths in one round-trip per shard")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request deadline (0 = none)")
	retries := fs.Int("retries", 2, "extra attempts after a transport failure")
	push := fs.Bool("push", false, "subscribe for server-pushed invalidation frames, which purge the cache; then print their count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no paths given")
	}
	switch {
	case *repeat < 1:
		return fmt.Errorf("-n %d: must be >= 1", *repeat)
	case *cacheSize < 0:
		return fmt.Errorf("-cache %d: must be >= 0", *cacheSize)
	case *timeout < 0:
		return fmt.Errorf("-timeout %v: must be >= 0", *timeout)
	case *retries < 0:
		return fmt.Errorf("-retries %d: must be >= 0", *retries)
	}
	verb, rest, err := splitVerb(fs.Args())
	if err != nil {
		return err
	}

	opts := []cluster.ClientOption{
		cluster.WithTimeout(*timeout),
		cluster.WithRetries(*retries),
	}
	if *cacheSize > 0 {
		opts = append(opts, cluster.WithLRU(*cacheSize))
	}
	if *push {
		opts = append(opts, cluster.WithPushInvalidation())
	}
	client, err := cluster.Dial("tcp", *addr, opts...)
	if err != nil {
		return err
	}
	defer client.Close()

	if verb != "" {
		return mutate(out, client, verb, rest)
	}

	routes := client.Routes()
	if routes.Replicas != nil {
		fmt.Fprintf(out, "cluster: %d shards x %d replicas via %s\n",
			len(routes.Addrs), len(routes.ReplicaAddrs(0)), *addr)
	} else {
		fmt.Fprintf(out, "cluster: %d shards via %s\n", len(routes.Addrs), *addr)
	}

	paths := make([]core.Path, len(rest))
	for i, arg := range rest {
		_, paths[i] = core.SplitPathString(arg)
	}
	for i := 0; i < *repeat; i++ {
		if *batch {
			results, err := client.ResolveBatch(paths)
			if err != nil {
				return err
			}
			for j, res := range results {
				printResolved(out, rest[j], res.Entity, res.Err)
			}
			continue
		}
		for j, p := range paths {
			e, err := client.Resolve(p)
			printResolved(out, rest[j], e, err)
		}
	}
	if *cacheSize > 0 {
		m := client.Metrics()
		fmt.Fprintf(out, "cache: %d hits, %d misses\n", m.Hits, m.Misses)
	}
	if *push {
		fmt.Fprintf(out, "push: %d invalidations\n", client.Metrics().Invalidations)
	}
	return nil
}

// printResolved prints one path's outcome: a per-path error is output,
// not a failure of the run.
func printResolved(out io.Writer, arg string, e core.Entity, err error) {
	if err != nil {
		fmt.Fprintf(out, "%-30s -> error: %v\n", arg, err)
		return
	}
	fmt.Fprintf(out, "%-30s -> %v\n", arg, e)
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

// mutate applies one mutation verb; the write routes to the owning
// shard's primary replica.
func mutate(out io.Writer, client *cluster.Client, verb string, args []string) error {
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
		fmt.Fprintf(out, "bound %s -> %v\n", args[0], target)
	case "unbind":
		if err := client.Unbind(dir, name); err != nil {
			return err
		}
		fmt.Fprintf(out, "unbound %s\n", args[0])
	case "mkcontext":
		e, err := client.Mkcontext(dir, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "made context %s -> %v\n", args[0], e)
	}
	return nil
}
