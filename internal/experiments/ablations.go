package experiments

import (
	"fmt"
	"net"
	"sync"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/nameserver"
	"namecoherence/internal/netsim"
	"namecoherence/internal/pqi"
	"namecoherence/internal/workload"
)

// A1Config parameterizes ablation A1: the effect of client-side caching on
// remote name resolution.
type A1Config struct {
	// Names is the number of distinct remote names.
	Names int
	// Lookups is the number of (Zipf-distributed) lookups issued.
	Lookups int
	// CacheSizes is the sweep (0 = no cache).
	CacheSizes []int
	// Seed drives the Zipf sampler.
	Seed int64
}

// DefaultA1 returns the standard configuration.
func DefaultA1() A1Config {
	return A1Config{Names: 100, Lookups: 2000, CacheSizes: []int{0, 8, 64, 512}, Seed: 11}
}

// A1 measures how many requests reach the name server as the client cache
// grows, under a Zipf lookup distribution.
func A1(cfg A1Config) (*Table, error) {
	w := core.NewWorld()
	tr := dirtree.New(w, "export")
	paths := make([]core.Path, cfg.Names)
	for i := range paths {
		p := core.ParsePath(fmt.Sprintf("dir/f%04d", i))
		if _, err := tr.Create(p, "x"); err != nil {
			return nil, err
		}
		paths[i] = p
	}

	t := &Table{
		ID:     "A1",
		Title:  title("A1"),
		Header: []string{"cache-size", "lookups", "server-requests", "hit-rate"},
		Notes: []string{
			"ablation: remote resolution cost is dominated by wire crossings; a",
			"small cache absorbs most of a skewed lookup stream (at the price of",
			"staleness — caches are never invalidated here).",
		},
	}
	for _, size := range cfg.CacheSizes {
		server := nameserver.NewServer(w, tr.RootContext())
		serverEnd, clientEnd := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			server.ServeConn(serverEnd)
		}()

		var opts []nameserver.ClientOption
		if size > 0 {
			opts = append(opts, nameserver.WithCache(size))
		}
		client := nameserver.NewClient(clientEnd, opts...)
		gen := workload.New(cfg.Seed)
		for _, idx := range gen.Zipf(cfg.Lookups, cfg.Names) {
			if _, err := client.Resolve(paths[idx]); err != nil {
				return nil, err
			}
		}
		hits, misses := client.Stats()
		if err := client.Close(); err != nil {
			return nil, err
		}
		wg.Wait()
		t.AddRow(itoa(size), itoa(cfg.Lookups), itoa(server.Served()),
			f2(float64(hits)/float64(hits+misses)))
	}
	return t, nil
}

// A3Config parameterizes ablation A3: forced pid qualification level.
type A3Config struct {
	// Topology as in E7.
	Networks, MachinesPerNet, ProcsPerMachine int
	// RefsPerProc is how many peer references each process holds.
	RefsPerProc int
	// Seed drives peer selection.
	Seed int64
}

// DefaultA3 returns the standard configuration.
func DefaultA3() A3Config {
	return A3Config{Networks: 2, MachinesPerNet: 3, ProcsPerMachine: 3, RefsPerProc: 8, Seed: 13}
}

// A3 forces every reference to a fixed qualification level (1..3) and
// reports how many references are expressible at that level at all, and how
// many survive a machine renumbering. Minimal qualification (E7's scheme)
// is the per-reference best case; this ablation shows both why level 3
// (fully qualified) is fragile and why a fixed low level cannot express
// distant references.
func A3(cfg A3Config) (*Table, error) {
	t := &Table{
		ID:     "A3",
		Title:  title("A3"),
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
		for n := 1; n <= cfg.Networks; n++ {
			for m := 1; m <= cfg.MachinesPerNet; m++ {
				for l := 1; l <= cfg.ProcsPerMachine; l++ {
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
		gen := workload.New(cfg.Seed)
		type held struct {
			holder  *pqi.Node
			subject string
		}
		var refs []held
		total, expressible := 0, 0
		for _, n := range nodes {
			for r := 0; r < cfg.RefsPerProc; r++ {
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
