package experiments

import (
	"fmt"

	"namecoherence/internal/core"
	"namecoherence/internal/dirtree"
	"namecoherence/internal/embedded"
)

// E6Config parameterizes experiment E6 (Figure 6, §6 Example 2): embedded
// file names under the Algol scope rule.
type E6Config struct {
	// EmbeddedNames is the number of embedded references in the subtree.
	EmbeddedNames int
}

// DefaultE6 returns the standard configuration.
func DefaultE6() E6Config {
	return E6Config{EmbeddedNames: 20}
}

// e6World builds a project subtree with cfg.EmbeddedNames source files,
// each embedding a name (lib/tNNN) that the project root binds, and returns
// the tree, the project-relative source paths, and the entities the
// embedded names originally denote.
func e6World(cfg E6Config) (*core.World, *dirtree.Tree, []core.Path, []core.Entity, error) {
	w := core.NewWorld()
	tr := dirtree.New(w, "root")
	srcs := make([]core.Path, 0, cfg.EmbeddedNames)
	wants := make([]core.Entity, 0, cfg.EmbeddedNames)
	for i := 0; i < cfg.EmbeddedNames; i++ {
		e, err := tr.Create(core.ParsePath(fmt.Sprintf("proj/lib/t%03d", i)), "target")
		if err != nil {
			return nil, nil, nil, nil, err
		}
		src := core.ParsePath(fmt.Sprintf("src/s%03d", i))
		if _, err := tr.Create(core.PathOf("proj").Join(src), "source",
			core.ParsePath(fmt.Sprintf("lib/t%03d", i))); err != nil {
			return nil, nil, nil, nil, err
		}
		srcs = append(srcs, src)
		wants = append(wants, e)
	}
	return w, tr, srcs, wants, nil
}

// e6Measure resolves every source file's embedded name, accessing the files
// at the given full paths, and counts how many denote the expected entity.
// With scoped=true the Algol scope rule is used; otherwise the baseline
// resolves embedded names against the accessor's root.
func e6Measure(w *core.World, tr *dirtree.Tree, srcs []core.Path, wants []core.Entity, scoped bool) (int, error) {
	preserved := 0
	for i, src := range srcs {
		file, trail, err := tr.LookupTrail(src)
		if err != nil {
			return 0, fmt.Errorf("lookup %q: %w", src, err)
		}
		data, err := tr.File(file)
		if err != nil {
			return 0, err
		}
		emb := data.Embedded[0]
		var got core.Entity
		if scoped {
			got, _, err = embedded.Resolve(w, embedded.Chain(tr.Root, trail), emb)
		} else {
			got, err = tr.Lookup(emb)
		}
		if err == nil && got == wants[i] {
			preserved++
		}
	}
	return preserved, nil
}

// graft prefixes every project-relative source path with the given access
// path of the project directory.
func graft(prefix core.Path, srcs []core.Path) []core.Path {
	out := make([]core.Path, len(srcs))
	for i, s := range srcs {
		out[i] = prefix.Join(s)
	}
	return out
}

// E6 measures meaning preservation for embedded names across the operations
// Figure 6 promises are safe: relocation, simultaneous attachment, and
// copying — under the Algol scope rule and the accessor-root baseline.
func E6(cfg E6Config) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  title("E6"),
		Header: []string{"operation", "R(file)-scoped", "R(activity)-baseline", "of"},
		Notes: []string{
			"paper §6 Ex.2: under the scope rule the name has the same meaning",
			"regardless of the accessing process; the subtree can be relocated,",
			"copied, or attached in several places without changing the meaning of",
			"its embedded names. The baseline breaks as soon as the subtree moves.",
		},
	}
	total := itoa(cfg.EmbeddedNames)

	run := func(label string, w *core.World, tr *dirtree.Tree, srcs []core.Path, wants []core.Entity) error {
		s, err := e6Measure(w, tr, srcs, wants, true)
		if err != nil {
			return err
		}
		b, err := e6Measure(w, tr, srcs, wants, false)
		if err != nil {
			return err
		}
		t.AddRow(label, itoa(s), itoa(b), total)
		return nil
	}

	// In place: even the baseline works only if the embedded names happen
	// to resolve from the root — here they do not (lib/ lives under proj/).
	{
		w, tr, srcs, wants, err := e6World(cfg)
		if err != nil {
			return nil, err
		}
		if err := run("in place", w, tr, graft(core.PathOf("proj"), srcs), wants); err != nil {
			return nil, err
		}
	}

	// Baseline-friendly layout: attach the project at the root under the
	// very name its embedded references assume ("lib" reachable from the
	// accessor root). This is the one layout where the baseline works.
	{
		w, tr, srcs, wants, err := e6World(cfg)
		if err != nil {
			return nil, err
		}
		proj, err := tr.Lookup(core.PathOf("proj"))
		if err != nil {
			return nil, err
		}
		projCtx, _ := w.ContextOf(proj)
		tr.RootContext().Bind("lib", projCtx.Lookup("lib"))
		if err := run("baseline-friendly layout", w, tr, graft(core.PathOf("proj"), srcs), wants); err != nil {
			return nil, err
		}
	}

	// Relocated.
	{
		w, tr, srcs, wants, err := e6World(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := tr.MkdirAll(core.PathOf("elsewhere")); err != nil {
			return nil, err
		}
		if err := tr.Move(core.PathOf("proj"), core.ParsePath("elsewhere/proj")); err != nil {
			return nil, err
		}
		if err := run("after relocation", w, tr, graft(core.ParsePath("elsewhere/proj"), srcs), wants); err != nil {
			return nil, err
		}
	}

	// Simultaneously attached at a second point; accessed via the mirror.
	{
		w, tr, srcs, wants, err := e6World(cfg)
		if err != nil {
			return nil, err
		}
		proj, err := tr.Lookup(core.PathOf("proj"))
		if err != nil {
			return nil, err
		}
		if _, err := tr.MkdirAll(core.PathOf("mirror")); err != nil {
			return nil, err
		}
		if err := tr.Attach(core.PathOf("mirror"), "proj", proj); err != nil {
			return nil, err
		}
		if err := run("via simultaneous attachment", w, tr, graft(core.ParsePath("mirror/proj"), srcs), wants); err != nil {
			return nil, err
		}
	}

	// Copied: the copy must be self-contained — embedded names denote the
	// copy's own targets.
	{
		w, tr, srcs, _, err := e6World(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := tr.MkdirAll(core.PathOf("backup")); err != nil {
			return nil, err
		}
		if _, err := tr.CopySubtree(core.PathOf("proj"), core.ParsePath("backup/proj")); err != nil {
			return nil, err
		}
		copyWants := make([]core.Entity, len(srcs))
		for i := range srcs {
			want, err := tr.Lookup(core.ParsePath(fmt.Sprintf("backup/proj/lib/t%03d", i)))
			if err != nil {
				return nil, err
			}
			copyWants[i] = want
		}
		if err := run("copy resolves within copy", w, tr, graft(core.ParsePath("backup/proj"), srcs), copyWants); err != nil {
			return nil, err
		}
	}
	return t, nil
}
