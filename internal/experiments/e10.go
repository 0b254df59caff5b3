package experiments

import (
	"fmt"

	"namecoherence/internal/coherence"
	"namecoherence/internal/core"
	"namecoherence/internal/federation"
	"namecoherence/internal/sharedns"
)

// e10 (§7: name spaces shared in limited scopes) builds a federation of
// organizations with group-scoped (/proj), org-scoped (/users) and
// federation-scoped (/services) name spaces, and measures coherence
// between activity pairs at increasing scope distance. The probe set is
// the union of one name from each space class.
func e10() (*Table, error) {
	const (
		// orgs and groupsPerOrg shape the hierarchy; each group has
		// clientsPerGroup client subsystems.
		orgs, groupsPerOrg, clientsPerGroup = 2, 2, 2
		// namesPerSpace sizes each shared space.
		namesPerSpace = 10
	)
	w := core.NewWorld()
	fed := federation.New(w)

	type clientRef struct {
		org, group int
		name       string
	}
	var clients []clientRef
	systems := make([]*sharedns.System, orgs)

	// Build per-org systems with their clients.
	for o := 0; o < orgs; o++ {
		var names []string
		for g := 0; g < groupsPerOrg; g++ {
			for c := 0; c < clientsPerGroup; c++ {
				n := fmt.Sprintf("o%dg%dc%d", o, g, c)
				names = append(names, n)
				clients = append(clients, clientRef{org: o, group: g, name: n})
			}
		}
		s, err := sharedns.NewSystem(w, names...)
		if err != nil {
			return nil, err
		}
		systems[o] = s
		if err := fed.AddSystem(fmt.Sprintf("org%d", o), s); err != nil {
			return nil, err
		}
	}

	fill := func(sp *sharedns.Space, label string) error {
		for i := 0; i < namesPerSpace; i++ {
			p := core.ParsePath(fmt.Sprintf("e%03d", i))
			if _, err := sp.Tree.Create(p, label); err != nil {
				return err
			}
		}
		return nil
	}

	// Group-scoped spaces: /proj shared within each group.
	for o := 0; o < orgs; o++ {
		for g := 0; g < groupsPerOrg; g++ {
			var members []string
			for _, c := range clients {
				if c.org == o && c.group == g {
					members = append(members, c.name)
				}
			}
			sp, err := systems[o].AttachSpace("proj", members...)
			if err != nil {
				return nil, err
			}
			if err := fill(sp, fmt.Sprintf("proj@o%dg%d", o, g)); err != nil {
				return nil, err
			}
		}
	}
	// Org-scoped spaces: /users shared across each whole organization.
	for o := 0; o < orgs; o++ {
		sp, err := systems[o].AttachSpace("users")
		if err != nil {
			return nil, err
		}
		if err := fill(sp, fmt.Sprintf("users@o%d", o)); err != nil {
			return nil, err
		}
	}
	// Federation-scoped space: /services shared by every client everywhere.
	services, err := systems[0].AttachSpace("services")
	if err != nil {
		return nil, err
	}
	if err := fill(services, "services@fed"); err != nil {
		return nil, err
	}
	for o := 1; o < orgs; o++ {
		if err := systems[o].AttachExistingSpace("services", services.Tree.Root); err != nil {
			return nil, err
		}
	}

	// Probe processes: one per client.
	procs := make(map[string]core.Entity)
	for _, c := range clients {
		p, err := systems[c.org].Spawn(c.name, "probe")
		if err != nil {
			return nil, err
		}
		procs[c.name] = p.Activity
	}
	// Each activity is registered with exactly one org's system; route the
	// probe to it.
	resolve := func(a core.Entity, p core.Path) (core.Entity, error) {
		for _, s := range systems {
			if _, ok := s.Registry.Get(a); ok {
				return s.Registry.ResolveAbs(a, p)
			}
		}
		return core.Undefined, fmt.Errorf("activity %v not registered", a)
	}

	probes := []core.Path{
		core.ParsePath("proj/e000"),
		core.ParsePath("users/e000"),
		core.ParsePath("services/e000"),
	}

	pairAt := func(distance string) [2]string {
		switch distance {
		case "same group":
			return [2]string{clients[0].name, clients[1].name}
		case "same org, different group":
			return [2]string{clients[0].name, clients[clientsPerGroup].name}
		default: // different org
			return [2]string{clients[0].name, clients[groupsPerOrg*clientsPerGroup].name}
		}
	}

	t := &Table{
		Header: []string{"pair", "proj", "users", "services", "strict-degree"},
		Notes: []string{
			"paper §7: it is sufficient to share name spaces in limited scopes among",
			"activities with a high degree of interaction; coherence falls off as the",
			"scope boundary is crossed, and only wider-scoped spaces stay coherent.",
		},
	}
	for _, dist := range []string{"same group", "same org, different group", "different org"} {
		pr := pairAt(dist)
		acts := []core.Entity{procs[pr[0]], procs[pr[1]]}
		row := []string{dist}
		coherentCount := 0
		for _, p := range probes {
			out := coherence.CheckName(w, resolve, acts, p)
			row = append(row, out.String())
			if out == coherence.Coherent {
				coherentCount++
			}
		}
		row = append(row, f2(float64(coherentCount)/float64(len(probes))))
		t.AddRow(row...)
	}
	return t, nil
}
