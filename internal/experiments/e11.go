package experiments

import (
	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/faultnet"
	"namecoherence/internal/nameserver"
)

// E11Config parameterizes experiment E11: weak coherence of a replicated
// name service over the wire, with failover.
type E11Config struct {
	// ReplicaCounts is the sweep of replica-set sizes.
	ReplicaCounts []int
	// Resolutions per phase.
	Resolutions int
}

// DefaultE11 returns the standard configuration.
func DefaultE11() E11Config {
	return E11Config{ReplicaCounts: []int{2, 4}, Resolutions: 24}
}

const e11Spec = `
dir /usr/bin
file /usr/bin/ls "#!ls"
file /etc/passwd "root:0"
`

// E11 drives resolutions round the replicas of a one-shard replicated
// cluster: strict coherence fails (distinct replica entities come back),
// weak coherence holds (all results are replicas of one another), and after
// one replica dies a failover client keeps answering.
func E11(cfg E11Config) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: title("E11"),
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
	for _, n := range cfg.ReplicaCounts {
		distinct, weak, succ, err := e11Run(n, cfg.Resolutions)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(n), itoa(cfg.Resolutions), itoa(distinct),
			f2(float64(weak)/float64(cfg.Resolutions)),
			f2(float64(succ)/float64(cfg.Resolutions)))
	}
	return t, nil
}

// e11Run measures one row: n replicas of one shard, resolutions per phase.
func e11Run(n, resolutions int) (distinct, weak, succ int, err error) {
	w := core.NewWorld()
	cl, err := cluster.NewReplicated(w, e11Spec, 1, n)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cl.Close()

	// cluster.Client sticks to a shard's primary by design, so the rotation
	// over the replicas is the experiment's own: one connection per address.
	p := core.ParsePath("usr/bin/ls")
	addrs := cl.Routes().Replicas[0]
	conns := make([]*nameserver.Client, len(addrs))
	for i, addr := range addrs {
		if conns[i], err = nameserver.Dial("tcp", addr); err != nil {
			return 0, 0, 0, err
		}
		defer conns[i].Close()
	}
	seen := make(map[core.EntityID]bool)
	var first core.Entity
	for i := 0; i < resolutions; i++ {
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
	for i := 0; i < resolutions; i++ {
		if _, err := client.Resolve(p); err == nil {
			succ++
		}
	}
	return len(seen), weak, succ, nil
}
