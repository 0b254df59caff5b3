package experiments

import (
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/workload"
)

// a5Fanouts are the fanouts of the trees A5 sweeps.
var a5Fanouts = []int{4, 16}

// a5 measures lookup-load concentration along a naming tree. It builds
// complete trees, drives uniform random leaf resolutions through them, and
// reports how lookup load concentrates: the root context serves every
// resolution while individual lower directories serve ~1/fanout^level of
// it — the root-bottleneck argument for caching upper-level bindings and
// for per-process roots.
func a5() (*Table, error) {
	const (
		// depth shapes the trees swept, with a5Fanouts.
		depth = 3
		// lookups is the number of random full-depth resolutions.
		lookups = 5000
		// seed drives leaf selection.
		seed = 23
	)
	t := &Table{
		Header: []string{"fanout", "lookups", "root-load", "max-level1-load", "max-deeper-load"},
		Notes: []string{
			"every compound name resolves its first component in the root context,",
			"so the root serves 100% of the traffic and load fans out by 1/fanout",
			"per level — the bottleneck that motivates caching and per-process roots.",
		},
	}
	for _, fanout := range a5Fanouts {
		w := core.NewWorld()
		tr := dirtree.New(w, "root")

		// Complete tree: depth levels of directories, files at the bottom.
		var leaves []core.Path
		var grow func(prefix core.Path, level int) error
		grow = func(prefix core.Path, level int) error {
			if level == depth {
				p := prefix.Append("f")
				if _, err := tr.Create(p, "x"); err != nil {
					return err
				}
				leaves = append(leaves, p)
				return nil
			}
			for i := 0; i < fanout; i++ {
				child := prefix.Append(core.Name(fmt.Sprintf("d%02d", i)))
				if _, err := tr.MkdirAll(child); err != nil {
					return err
				}
				if err := grow(child, level+1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := grow(nil, 0); err != nil {
			return nil, err
		}

		// Each resolution's trail lists the contexts its walk entered below
		// the root: every entry but the last (the leaf) is a context whose
		// Lookup the walk called, and the root's was called first.
		var rootLoad int
		level1 := make(map[core.EntityID]int, fanout)
		deeper := make(map[core.EntityID]int)
		gen := workload.New(seed)
		for i := 0; i < lookups; i++ {
			_, trail, err := tr.LookupTrail(leaves[gen.Intn(len(leaves))])
			if err != nil {
				return nil, err
			}
			rootLoad++
			level1[trail[0].ID]++
			for _, e := range trail[1 : len(trail)-1] {
				deeper[e.ID]++
			}
		}
		t.AddRow(itoa(fanout), itoa(lookups), itoa(rootLoad),
			itoa(maxLoad(level1)), itoa(maxLoad(deeper)))
	}
	return t, nil
}

// maxLoad returns the largest count in load, or 0 if it is empty.
func maxLoad(load map[core.EntityID]int) int {
	m := 0
	for _, n := range load {
		m = max(m, n)
	}
	return m
}
