package experiments

import (
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/trace"
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

		counter := trace.NewCounter()
		trace.InstrumentReachable(w, tr.Root, counter)

		gen := workload.New(seed)
		for i := 0; i < lookups; i++ {
			p := leaves[gen.Intn(len(leaves))]
			if _, err := tr.Lookup(p); err != nil {
				return nil, err
			}
		}

		// Record the workload's root load before any probe lookups below
		// add to it.
		rootLoad := counter.Count(tr.Root)

		level1 := make(map[core.EntityID]bool, fanout)
		var maxL1 int64
		for i := 0; i < fanout; i++ {
			d1, err := tr.Lookup(core.PathOf(core.Name(fmt.Sprintf("d%02d", i))))
			if err != nil {
				return nil, err
			}
			level1[d1.ID] = true
			if c := counter.Count(d1); c > maxL1 {
				maxL1 = c
			}
		}
		// The busiest context below level 1.
		var maxDeeper int64
		for _, l := range counter.Top(1 << 20) {
			if l.Entity == tr.Root.ID || level1[l.Entity] {
				continue
			}
			if l.Count > maxDeeper {
				maxDeeper = l.Count
			}
		}
		t.AddRow(itoa(fanout), itoa(lookups),
			fmt.Sprintf("%d", rootLoad),
			fmt.Sprintf("%d", maxL1),
			fmt.Sprintf("%d", maxDeeper))
	}
	return t, nil
}
