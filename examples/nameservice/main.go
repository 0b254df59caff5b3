// Nameservice: exports a naming tree over real TCP with the binary wire protocol,
// then demonstrates the coherence hazard of name caches — a plain cache,
// never invalidated, serves a stale meaning after a rebinding, while the
// cluster client's revision-tracked cache converges after one round-trip.
package main

import (
	"fmt"
	"os"

	"namecoherence/naming"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nameservice:", err)
		os.Exit(1)
	}
}

func run() error {
	w := naming.NewWorld()
	// One shard is a valid cluster: a lone name server with a routing table.
	cl, err := naming.NewShardedCluster(w, "file usr/bin/ls \"v1\"\nfile etc/motd \"hello\"\n", 1)
	if err != nil {
		return err
	}
	defer cl.Close()
	tr, addr := cl.Trees[0], cl.Addrs()[0]
	oldLs, err := tr.Lookup(naming.ParsePath("usr/bin/ls"))
	if err != nil {
		return err
	}
	fmt.Printf("name server on %s\n", addr)

	uncached, err := naming.DialShardedCluster("tcp", addr)
	if err != nil {
		return err
	}
	defer uncached.Close()
	plain := &plainCache{c: uncached, kept: make(map[string]naming.Entity)}
	coherent, err := naming.DialShardedCluster("tcp", addr, naming.WithShardLRU(16))
	if err != nil {
		return err
	}
	defer coherent.Close()

	p := naming.ParsePath("usr/bin/ls")
	warm := func(c naming.ServiceResolver, label string) error {
		e, err := c.Resolve(p)
		if err != nil {
			return err
		}
		fmt.Printf("  %-14s usr/bin/ls -> %v (%s)\n", label, e, w.Label(e))
		return nil
	}
	fmt.Println("\nboth clients resolve and cache usr/bin/ls:")
	if err := warm(plain, "plain cache:"); err != nil {
		return err
	}
	if err := warm(coherent, "coherent cache:"); err != nil {
		return err
	}

	// Rebind ls on the server side; the watched directory bumps the
	// revision automatically.
	binDir, err := tr.Lookup(naming.ParsePath("usr/bin"))
	if err != nil {
		return err
	}
	binCtx, _ := w.ContextOf(binDir)
	newLs := w.NewObject("ls-v2")
	binCtx.Bind("ls", newLs)
	fmt.Printf("\nserver rebinds usr/bin/ls: %v -> %v (revision now %d)\n",
		oldLs, newLs, cl.Server(0).Revision())

	// One unrelated round-trip lets the coherent client notice.
	if _, err := coherent.Resolve(naming.ParsePath("etc/motd")); err != nil {
		return err
	}
	if _, err := plain.Resolve(naming.ParsePath("etc/motd")); err != nil {
		return err
	}

	fmt.Println("\nafter one more round-trip each:")
	if err := warm(plain, "plain cache:"); err != nil {
		return err
	}
	if err := warm(coherent, "coherent cache:"); err != nil {
		return err
	}
	fmt.Println("\nthe plain cache still serves the stale entity; the coherent cache")
	fmt.Println("purged on the revision change and re-fetched the new meaning.")
	return nil
}

// plainCache keeps every answer forever: the uninvalidated name cache whose
// hazard the paper names, in front of an uncached client.
type plainCache struct {
	c    naming.ServiceResolver
	kept map[string]naming.Entity
}

func (p *plainCache) Resolve(path naming.Path) (naming.Entity, error) {
	key := path.String()
	if e, ok := p.kept[key]; ok {
		return e, nil
	}
	e, err := p.c.Resolve(path)
	if err == nil {
		p.kept[key] = e
	}
	return e, err
}
