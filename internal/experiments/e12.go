package experiments

import (
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/exchange"
	"namecoherence/internal/machine"
	"namecoherence/internal/newcastle"
)

// E12Config parameterizes experiment E12: boundary translators on the
// message substrate (§6 approach I for textual names).
type E12Config struct {
	// Machines is the Newcastle system size.
	Machines int
	// NamesPerPair is how many names each ordered machine pair exchanges.
	NamesPerPair int
}

// DefaultE12 returns the standard configuration.
func DefaultE12() E12Config {
	return E12Config{Machines: 3, NamesPerPair: 5}
}

// E12 exchanges local absolute names between every ordered pair of
// Newcastle machines through the message substrate, under the identity
// (R(receiver)) baseline and the Newcastle mapping translator (R(sender)),
// and counts coherent deliveries.
func E12(cfg E12Config) (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  title("E12"),
		Header: []string{"translator", "coherent", "of", "same-machine coherent", "of"},
		Notes: []string{
			"§6 I applied to file names: R(sender), implemented by translating the",
			"embedded name at the communication boundary, restores coherence that",
			"the verbatim baseline only has within a machine.",
		},
	}
	for _, mapped := range []bool{false, true} {
		w := core.NewWorld()
		names := make([]string, cfg.Machines)
		for i := range names {
			names[i] = fmt.Sprintf("m%d", i+1)
		}
		s, err := newcastle.NewSystem(w, names...)
		if err != nil {
			return nil, err
		}
		var exchanged []string
		for i := 0; i < cfg.NamesPerPair; i++ {
			name := fmt.Sprintf("/shared/f%02d", i)
			for _, mn := range names {
				m, _ := s.Machine(mn)
				_, p := core.SplitPathString(name)
				if _, err := m.Tree.Create(p, "content@"+mn); err != nil {
					return nil, err
				}
			}
			exchanged = append(exchanged, name)
		}

		var tr exchange.Translator
		label := "identity (R(receiver))"
		if mapped {
			tr = &exchange.NewcastleTranslator{System: s}
			label = "newcastle mapping (R(sender))"
		}
		x := exchange.NewExchanger(tr)
		parties := make(map[string]*exchange.Party, len(names))
		var procs []*machine.Process
		for _, mn := range names {
			p, err := s.Spawn(mn, "party")
			if err != nil {
				return nil, err
			}
			procs = append(procs, p)
			party, err := x.Join(p, mn)
			if err != nil {
				return nil, err
			}
			parties[mn] = party
		}
		_ = procs

		crossCoherent, crossTotal := 0, 0
		sameCoherent, sameTotal := 0, 0
		for _, from := range names {
			// Same-machine control: a forked sibling.
			sibling, err := x.Join(parties[from].Proc.Fork("sibling"), from)
			if err != nil {
				return nil, err
			}
			for _, name := range exchanged {
				ok, _, err := x.RoundTrip(parties[from], sibling, name)
				if err != nil {
					return nil, err
				}
				sameTotal++
				if ok {
					sameCoherent++
				}
			}
			for _, to := range names {
				if from == to {
					continue
				}
				for _, name := range exchanged {
					ok, _, err := x.RoundTrip(parties[from], parties[to], name)
					if err != nil {
						return nil, err
					}
					crossTotal++
					if ok {
						crossCoherent++
					}
				}
			}
		}
		t.AddRow(label, itoa(crossCoherent), itoa(crossTotal),
			itoa(sameCoherent), itoa(sameTotal))
	}
	return t, nil
}
