// Replicated: a replicated name service (the paper's weak coherence, §5,
// at the service level). Three replica servers answer for the same logical
// tree; asking them in rotation gets different — but same-replica —
// entities back, and a failover client keeps working when a replica dies.
package main

import (
	"fmt"
	"os"

	"namecoherence/naming"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replicated:", err)
		os.Exit(1)
	}
}

func run() error {
	w := naming.NewWorld()
	cl, err := naming.NewReplicatedCluster(w, `
dir /usr/bin
file /usr/bin/ls "#!ls"
`, 1, 3)
	if err != nil {
		return err
	}
	defer cl.Close()
	replicas := cl.Routes().Replicas[0]

	p := naming.ParsePath("usr/bin/ls")
	fmt.Println("resolving usr/bin/ls six times, asking the replicas in rotation:")
	var first naming.Entity
	for i := 0; i < 6; i++ {
		c, err := naming.DialNameServer("tcp", replicas[i%len(replicas)])
		if err != nil {
			return err
		}
		e, err := c.Resolve(p)
		_ = c.Close()
		if err != nil {
			return err
		}
		if i == 0 {
			first = e
		}
		fmt.Printf("  -> %v  (same entity: %v, same replica group: %v)\n",
			e, e == first, w.SameReplica(first, e))
	}

	// The cluster client asks a shard's primary until it stops answering.
	client, err := naming.DialShardedCluster("tcp", replicas[0])
	if err != nil {
		return err
	}
	defer client.Close()
	e, err := client.Resolve(p)
	if err != nil {
		return err
	}
	fmt.Printf("\nthe cluster client asks the primary:\n  -> %v\n", e)
	fmt.Println("\nkilling replica 0; the cluster client fails over:")
	cl.ReplicaServer(0, 0).Close()
	for i := 0; i < 3; i++ {
		e, err := client.Resolve(p)
		if err != nil {
			return err
		}
		fmt.Printf("  -> %v\n", e)
	}
	fmt.Printf("failovers: %d\n", client.Failovers())
	fmt.Println("\npaper §5: for replicated objects, weak coherence — same replica")
	fmt.Println("group, not same entity — is the right requirement, and it buys")
	fmt.Println("availability.")
	return nil
}
