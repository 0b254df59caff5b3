package experiments

import (
	"fmt"
	"strings"

	"namecoherence/internal/cluster"
	"namecoherence/internal/core"
	"namecoherence/internal/netsim"
	"namecoherence/internal/pqi"
	"namecoherence/internal/workload"
)

// a1CacheSizes is A1's sweep of client cache sizes (0 = no cache).
var a1CacheSizes = []int{0, 8, 64, 512}

// a1 measures the effect of client-side caching on remote name
// resolution: how many requests reach the name server as the client cache
// grows, under a Zipf lookup distribution.
func a1() (*Table, error) {
	const (
		// names is the number of distinct remote names.
		names = 100
		// lookups is the number of (Zipf-distributed) lookups issued.
		lookups = 2000
		// seed drives the Zipf sampler.
		seed = 11
	)
	var spec strings.Builder
	paths := make([]core.Path, names)
	for i := range paths {
		paths[i] = core.ParsePath(fmt.Sprintf("dir/f%04d", i))
		fmt.Fprintf(&spec, "file %s \"x\"\n", paths[i])
	}
	cl, err := cluster.New(core.NewWorld(), spec.String(), 1)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	t := &Table{
		Header: []string{"cache-size", "lookups", "server-requests", "hit-rate"},
		Notes: []string{
			"ablation: remote resolution cost is dominated by wire crossings; a",
			"small cache absorbs most of a skewed lookup stream (at the price of",
			"staleness — caches are never invalidated here).",
		},
	}
	for _, size := range a1CacheSizes {
		// Nothing rebinds, so the revision-tracked cache never purges: it
		// answers exactly as an uninvalidated one would.
		var opts []cluster.ClientOption
		if size > 0 {
			opts = append(opts, cluster.WithLRU(size))
		}
		client := cluster.NewClient("tcp", cl.Routes(), opts...)
		before := cl.Metrics().Served
		gen := workload.New(seed)
		for _, idx := range gen.Zipf(lookups, names) {
			if _, err := client.Resolve(paths[idx]); err != nil {
				client.Close()
				return nil, err
			}
		}
		m := client.Metrics()
		client.Close()
		t.AddRow(itoa(size), itoa(lookups), itoa(cl.Metrics().Served-before),
			f2(float64(m.Hits)/float64(m.Hits+m.Misses)))
	}
	return t, nil
}

// a3 (forced pid qualification level) forces every reference to a fixed
// qualification level (1..3) and reports how many references are
// expressible at that level at all, and how many survive a machine
// renumbering. Minimal qualification (E7's scheme) is the per-reference
// best case; this ablation shows both why level 3 (fully qualified) is
// fragile and why a fixed low level cannot express distant references.
func a3() (*Table, error) {
	const (
		// Topology as in E7.
		networks, machinesPerNet, procsPerMachine = 2, 3, 3
		// refsPerProc is how many peer references each process holds.
		refsPerProc = 8
		// seed drives peer selection.
		seed = 13
	)
	t := &Table{
		Header: []string{"level", "expressible", "survive-renumber", "of"},
		Notes: []string{
			"level 1 = (0,0,l): intra-machine only; level 2 = (0,m,l): intra-network;",
			"level 3 = (n,m,l): anywhere but stale after any renumbering it spans.",
		},
	}
	for level := 1; level <= 3; level++ {
		network := netsim.NewNetwork()
		var nodes []*pqi.Node
		dir := make(map[string]*pqi.Node)
		for n := 1; n <= networks; n++ {
			for m := 1; m <= machinesPerNet; m++ {
				for l := 1; l <= procsPerMachine; l++ {
					name := fmt.Sprintf("p-%d-%d-%d", n, m, l)
					node, err := pqi.NewNode(network, netsim.Addr{
						Net: uint32(n), Mach: uint32(m), Local: uint32(l),
					}, name)
					if err != nil {
						return nil, err
					}
					nodes = append(nodes, node)
					dir[name] = node
				}
			}
		}
		gen := workload.New(seed)
		type held struct {
			holder  *pqi.Node
			subject string
		}
		var refs []held
		total, expressible := 0, 0
		for _, n := range nodes {
			for r := 0; r < refsPerProc; r++ {
				target := nodes[gen.Intn(len(nodes))]
				if target == n {
					continue
				}
				total++
				p, err := pqi.RelativizeAt(target.Addr(), n.Addr(), level)
				if err != nil {
					continue // not expressible at this level
				}
				expressible++
				n.Hold(target.Name, p)
				refs = append(refs, held{holder: n, subject: target.Name})
			}
		}
		if _, err := network.RenumberMachine(1, 1, 9); err != nil {
			return nil, err
		}
		survived := 0
		for _, r := range refs {
			if r.holder.RefValid(r.subject, dir) {
				survived++
			}
		}
		t.AddRow(itoa(level), itoa(expressible), itoa(survived), itoa(total))
	}
	return t, nil
}
