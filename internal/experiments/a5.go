package experiments

import (
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/trace"
	"namecoherence/internal/workload"
)

// A5Config parameterizes ablation A5: lookup-load concentration along a
// naming tree.
type A5Config struct {
	// Depth and Fanouts shape the trees swept.
	Depth   int
	Fanouts []int
	// Lookups is the number of random full-depth resolutions.
	Lookups int
	// Seed drives leaf selection.
	Seed int64
}

// DefaultA5 returns the standard configuration.
func DefaultA5() A5Config {
	return A5Config{Depth: 3, Fanouts: []int{4, 16}, Lookups: 5000, Seed: 23}
}

// A5 builds complete trees, drives uniform random leaf resolutions through
// them, and reports how lookup load concentrates: the root context serves
// every resolution while individual lower directories serve ~1/fanout^level
// of it — the root-bottleneck argument for caching upper-level bindings
// and for per-process roots.
func A5(cfg A5Config) (*Table, error) {
	t := &Table{
		ID:     "A5",
		Title:  title("A5"),
		Header: []string{"fanout", "lookups", "root-load", "max-level1-load", "max-deeper-load"},
		Notes: []string{
			"every compound name resolves its first component in the root context,",
			"so the root serves 100% of the traffic and load fans out by 1/fanout",
			"per level — the bottleneck that motivates caching and per-process roots.",
		},
	}
	for _, fanout := range cfg.Fanouts {
		w := core.NewWorld()
		tr := dirtree.New(w, "root")

		// Complete tree: depth levels of directories, files at the bottom.
		var leaves []core.Path
		var grow func(prefix core.Path, level int) error
		grow = func(prefix core.Path, level int) error {
			if level == cfg.Depth {
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

		gen := workload.New(cfg.Seed)
		for i := 0; i < cfg.Lookups; i++ {
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
		t.AddRow(itoa(fanout), itoa(cfg.Lookups),
			fmt.Sprintf("%d", rootLoad),
			fmt.Sprintf("%d", maxL1),
			fmt.Sprintf("%d", maxDeeper))
	}
	return t, nil
}
