package experiments

import (
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/embedded"
	"namecoherence/internal/federation"
	"namecoherence/internal/sharedns"
)

// E5Config parameterizes experiment E5 (Figure 5, §5.3): cross-linked
// autonomous systems.
type E5Config struct {
	// Users is the number of user homes in each organization's /users.
	Users int
	// CollidingUsers is how many user names exist in both organizations
	// (colliding textual names denoting different entities).
	CollidingUsers int
}

// DefaultE5 returns the standard configuration.
func DefaultE5() E5Config {
	return E5Config{Users: 20, CollidingUsers: 5}
}

// E5 measures name exchange across a federation boundary: verbatim names
// are incoherent (missing or, worse, colliding), the human prefix-mapping
// closure restores coherence for plain names, and the Algol-scoped rule for
// embedded names restores coherence for structured objects accessed through
// the cross-link.
func E5(cfg E5Config) (*Table, error) {
	w := core.NewWorld()
	f := federation.New(w)

	org1, err := sharedns.NewSystem(w, "o1c1")
	if err != nil {
		return nil, err
	}
	org2, err := sharedns.NewSystem(w, "o2c1")
	if err != nil {
		return nil, err
	}
	users1, err := org1.AttachSpace("users")
	if err != nil {
		return nil, err
	}
	users2, err := org2.AttachSpace("users")
	if err != nil {
		return nil, err
	}
	if err := f.AddSystem("org1", org1); err != nil {
		return nil, err
	}
	if err := f.AddSystem("org2", org2); err != nil {
		return nil, err
	}

	// org2's users; the first CollidingUsers also exist in org1.
	var exchanged []string
	for i := 0; i < cfg.Users; i++ {
		user := fmt.Sprintf("u%03d", i)
		p := core.ParsePath(user + "/profile")
		if _, err := users2.Tree.Create(p, user+"@org2"); err != nil {
			return nil, err
		}
		if i < cfg.CollidingUsers {
			if _, err := users1.Tree.Create(p, user+"@org1"); err != nil {
				return nil, err
			}
		}
		exchanged = append(exchanged, "/users/"+user+"/profile")
	}

	// A structured object in org2's users space: a document whose parts are
	// linked by embedded names scoped to the subtree.
	if _, err := users2.Tree.Create(core.ParsePath("u000/doc/parts/intro"), "intro text"); err != nil {
		return nil, err
	}
	if _, err := users2.Tree.Create(core.ParsePath("u000/doc/main"), "main text",
		core.ParsePath("parts/intro")); err != nil {
		return nil, err
	}

	// Cross-link org2's users space into org1 under /org2-users.
	if err := f.CrossLink("org1", "org2-users", "org2", "users", "/"); err != nil {
		return nil, err
	}

	sender, err := org2.Spawn("o2c1", "sender")
	if err != nil {
		return nil, err
	}
	receiver, err := org1.Spawn("o1c1", "receiver")
	if err != nil {
		return nil, err
	}
	pm := federation.NewPrefixMapper()
	pm.AddRule("/users", "/org2-users")

	countCoherent := func(mapper *federation.PrefixMapper) (coherent, collisions int) {
		for _, name := range exchanged {
			out := federation.ExchangeName(sender, receiver, name, mapper)
			if out.Coherent {
				coherent++
			} else if !out.ReceiverEntity.IsUndefined() {
				collisions++
			}
		}
		return coherent, collisions
	}
	cohPlain, collPlain := countCoherent(nil)
	cohMapped, collMapped := countCoherent(pm)

	t := &Table{
		ID:     "E5",
		Title:  title("E5"),
		Header: []string{"exchange", "coherent", "wrong-entity", "of"},
		Notes: []string{
			"paper §5.3/§7: incoherence arises when names are exchanged across system",
			"boundaries; the human prefix-mapping closure (add /org2) restores it;",
			"embedded names need the scoped rule of §6 — prefixes cannot reach them.",
		},
	}
	t.AddRow("verbatim across boundary", itoa(cohPlain), itoa(collPlain), itoa(len(exchanged)))
	t.AddRow("with prefix mapping", itoa(cohMapped), itoa(collMapped), itoa(len(exchanged)))

	// Embedded names inside the shared structured object, accessed from
	// org1 through the cross-link. Baseline: resolve the embedded name
	// against the receiver's root (R(activity)) — it fails, and no prefix
	// rule helps because humans never see embedded names. Scoped rule:
	// resolve along the access trail — coherent.
	intro2, err := users2.Tree.Lookup(core.ParsePath("u000/doc/parts/intro"))
	if err != nil {
		return nil, err
	}
	embName := core.ParsePath("parts/intro")

	_, baselineErr := receiver.Resolve("/" + embName.String())
	baselineOK := 0
	if baselineErr == nil {
		baselineOK = 1
	}
	t.AddRow("embedded name, receiver-root rule", itoa(baselineOK), "0", "1")

	recvRoot, err := receiver.Resolve("/")
	if err != nil {
		return nil, err
	}
	_, trail, err := receiver.ResolveTrail("/org2-users/u000/doc/main")
	if err != nil {
		return nil, err
	}
	chain := embedded.Chain(recvRoot, trail)
	got, _, err := embedded.Resolve(w, chain, embName)
	scopedOK := 0
	if err == nil && got == intro2 {
		scopedOK = 1
	}
	t.AddRow("embedded name, Algol-scope rule", itoa(scopedOK), "0", "1")
	return t, nil
}
