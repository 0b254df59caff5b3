package experiments

import (
	"fmt"

	"namecoherence/internal/netsim"
	"namecoherence/internal/pqi"
	"namecoherence/internal/workload"
)

const (
	// e7Networks, e7MachinesPerNet and e7ProcsPerMachine shape E7's
	// topology.
	e7Networks, e7MachinesPerNet, e7ProcsPerMachine = 2, 3, 4
	// e7RefsPerProc is how many peer references each process holds.
	e7RefsPerProc = 6
	// e7Seed drives peer selection.
	e7Seed = 7
)

// e7Event is a renumbering event plus the scope predicate that classifies
// addresses as inside the renamed subsystem.
type e7Event struct {
	name   string
	apply  func(*netsim.Network) error
	inside func(netsim.Addr) bool
}

// e7Run builds the topology, distributes refs under the given qualification
// scheme (minimal PQI or fully qualified), applies the event, and returns
// survival counts per ref class: "intra" (both endpoints inside the renamed
// subsystem), "outward" (held inside, pointing out), "inward" (held
// outside, pointing in), "untouched" (neither endpoint inside).
func e7Run(minimal bool, ev e7Event) (map[string][2]int, error) {
	network := netsim.NewNetwork()
	var nodes []*pqi.Node
	dir := make(map[string]*pqi.Node)
	for n := 1; n <= e7Networks; n++ {
		for m := 1; m <= e7MachinesPerNet; m++ {
			for l := 1; l <= e7ProcsPerMachine; l++ {
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

	gen := workload.New(e7Seed)
	type held struct {
		holder  *pqi.Node
		subject string
		class   string
	}
	var refs []held
	for i, n := range nodes {
		// Every process holds a reference to its machine-local neighbour
		// (the subsystem's internal connections the paper cares about),
		// plus e7RefsPerProc-1 random peers.
		neighbour := i - i%e7ProcsPerMachine + (i+1)%e7ProcsPerMachine
		targets := make([]*pqi.Node, 0, e7RefsPerProc)
		targets = append(targets, nodes[neighbour])
		for len(targets) < e7RefsPerProc {
			targets = append(targets, nodes[gen.Intn(len(nodes))])
		}
		for _, target := range targets {
			if target == n {
				continue
			}
			var p pqi.PID
			if minimal {
				p = pqi.Relativize(target.Addr(), n.Addr())
			} else {
				var err error
				p, err = pqi.RelativizeAt(target.Addr(), n.Addr(), 3)
				if err != nil {
					return nil, err
				}
			}
			n.Hold(target.Name, p)
			class := "untouched"
			hIn, tIn := ev.inside(n.Addr()), ev.inside(target.Addr())
			switch {
			case hIn && tIn:
				class = "intra"
			case hIn:
				class = "outward"
			case tIn:
				class = "inward"
			}
			refs = append(refs, held{holder: n, subject: target.Name, class: class})
		}
	}

	if err := ev.apply(network); err != nil {
		return nil, err
	}
	out := make(map[string][2]int) // class → [survived, total]
	for _, r := range refs {
		c := out[r.class]
		c[1]++
		if r.holder.RefValid(r.subject, dir) {
			c[0]++
		}
		out[r.class] = c
	}
	return out, nil
}

// e7 (§6 Example 1) measures the fraction of connections that survive a
// machine renumbering and a network renumbering under each identifier
// scheme: partially qualified identifiers versus the fully qualified
// baseline.
func e7() (*Table, error) {
	t := &Table{
		Header: []string{"event", "scheme", "intra", "outward", "inward", "untouched"},
		Notes: []string{
			"paper §6 Ex.1: with partially qualified pids, pids of local processes",
			"within the renamed machine or network remain valid, so the subsystem",
			"maintains its internal connections; fully qualified pids into or inside",
			"the renamed subsystem all go stale.",
		},
	}
	events := []e7Event{
		{
			name: "renumber machine (1,1)→(1,9)",
			apply: func(n *netsim.Network) error {
				_, err := n.RenumberMachine(1, 1, 9)
				return err
			},
			inside: func(a netsim.Addr) bool { return a.Net == 1 && a.Mach == 1 },
		},
		{
			name: "renumber network 1→9",
			apply: func(n *netsim.Network) error {
				_, err := n.RenumberNetwork(1, 9)
				return err
			},
			inside: func(a netsim.Addr) bool { return a.Net == 1 },
		},
	}
	schemes := []struct {
		name    string
		minimal bool
	}{
		{name: "partially qualified", minimal: true},
		{name: "fully qualified", minimal: false},
	}
	for _, ev := range events {
		for _, sc := range schemes {
			counts, err := e7Run(sc.minimal, ev)
			if err != nil {
				return nil, err
			}
			row := []string{ev.name, sc.name}
			for _, class := range []string{"intra", "outward", "inward", "untouched"} {
				c := counts[class]
				if c[1] == 0 {
					row = append(row, "n/a")
					continue
				}
				row = append(row, fmt.Sprintf("%s (%d/%d)",
					f2(float64(c[0])/float64(c[1])), c[0], c[1]))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}
