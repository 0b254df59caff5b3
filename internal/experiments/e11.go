package experiments

import (
	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/faultnet"
	"namecoherence/internal/nameserver"
)

// e11ReplicaCounts is the sweep of replica-set sizes in E11.
var e11ReplicaCounts = []int{2, 4}

// e11Resolutions is E11's number of resolutions per phase.
const e11Resolutions = 24

const e11Spec = `
dir /usr/bin
file /usr/bin/ls "#!ls"
file /etc/passwd "root:0"
`

// e11 measures weak coherence of a replicated name service over the wire,
// with failover. It drives resolutions round the replicas of a one-shard
// replicated cluster: strict coherence fails (distinct replica entities
// come back), weak coherence holds (all results are replicas of one
// another), and after one replica dies a failover client keeps answering.
func e11() (*Table, error) {
	t := &Table{
		Header: []string{
			"replicas", "resolutions", "distinct-entities",
			"weak-coherent", "post-failure-success",
		},
		Notes: []string{
			"§5 at the service level: a replicated service cannot give strict",
			"coherence (each replica answers with its own entity), but gives weak",
			"coherence — which also buys availability: the pool survives a replica",
			"failure.",
		},
	}
	for _, n := range e11ReplicaCounts {
		distinct, weak, succ, err := e11Run(n)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(n), itoa(e11Resolutions), itoa(distinct),
			f2(float64(weak)/float64(e11Resolutions)),
			f2(float64(succ)/float64(e11Resolutions)))
	}
	return t, nil
}

// e11Run measures one row: n replicas of one shard, e11Resolutions per
// phase.
func e11Run(n int) (distinct, weak, succ int, err error) {
	w := core.NewWorld()
	cl, err := cluster.NewReplicated(w, e11Spec, 1, n)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cl.Close()

	// cluster.Client sticks to a shard's primary by design, so the rotation
	// over the replicas is the experiment's own: one client per replica,
	// pinned to it by a routing table that lists that address alone.
	p := core.ParsePath("usr/bin/ls")
	addrs := cl.Routes().Replicas[0]
	conns := make([]*cluster.Client, len(addrs))
	for i, addr := range addrs {
		conns[i] = cluster.NewClient("tcp", &nameserver.RouteInfo{Addrs: []string{addr}})
		defer conns[i].Close()
	}
	seen := make(map[core.EntityID]bool)
	var first core.Entity
	for i := 0; i < e11Resolutions; i++ {
		e, err := conns[i%len(conns)].Resolve(p)
		if err != nil {
			return 0, 0, 0, err
		}
		if i == 0 {
			first = e
		}
		seen[e.ID] = true
		if w.SameReplica(first, e) {
			weak++
		}
	}

	// Kill replica 0; count post-failure successes through one client.
	cl.Fault(0, 0).SetMode(faultnet.Reset)
	client := cluster.NewClient("tcp", cl.Routes())
	defer client.Close()
	for i := 0; i < e11Resolutions; i++ {
		if _, err := client.Resolve(p); err == nil {
			succ++
		}
	}
	return len(seen), weak, succ, nil
}
