package snapstore

import (
	"fmt"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
)

// Change is one differing binding between two snapshot roots. Old and New
// are the subtree hashes on each side; a zero hash means the binding is
// absent on that side (or is a cycle reference, which has no independent
// subtree — CycleChanged marks that case).
type Change struct {
	Path         core.Path
	Old, New     cas.Hash
	CycleChanged bool
}

// Diff compares two snapshot roots and returns the frontier of difference:
// for every binding whose subtree hash differs, one Change naming the
// deepest common path. Equal hashes prune whole subtrees without reading
// a single blob below them, so the cost is O(changed), not O(tree) — the
// property replica catch-up rides on.
func (s *Store) Diff(a, b cas.Hash) ([]Change, error) {
	var out []Change
	err := s.diffNodes(nil, a, b, &out)
	return out, err
}

// diffNodes recurses over the two nodes' entries, appending changes.
func (s *Store) diffNodes(path core.Path, a, b cas.Hash, out *[]Change) error {
	if a == b {
		return nil
	}
	// A zero hash is a binding absent on that side: it has no node.
	var na, nb *Node
	var err error
	if !a.IsZero() {
		if _, na, err = loadNode(s.cs, a); err != nil {
			return err
		}
	}
	if !b.IsZero() {
		if _, nb, err = loadNode(s.cs, b); err != nil {
			return err
		}
	}
	// Only a dir/dir pair can be compared binding-by-binding; anything
	// else is one changed subtree.
	if na == nil || nb == nil || na.Kind != KindDir || nb.Kind != KindDir {
		*out = append(*out, Change{Path: path.Clone(), Old: a, New: b})
		return nil
	}
	ea, eb := na.Entries, nb.Entries
	i, j := 0, 0
	for i < len(ea) || j < len(eb) {
		switch {
		case j >= len(eb) || (i < len(ea) && ea[i].Name < eb[j].Name):
			*out = append(*out, Change{
				Path: path.Append(ea[i].Name), Old: ea[i].Ref.Hash,
				CycleChanged: ea[i].Ref.IsCycle,
			})
			i++
		case i >= len(ea) || ea[i].Name > eb[j].Name:
			*out = append(*out, Change{
				Path: path.Append(eb[j].Name), New: eb[j].Ref.Hash,
				CycleChanged: eb[j].Ref.IsCycle,
			})
			j++
		default:
			ra, rb := ea[i].Ref, eb[j].Ref
			childPath := path.Append(ea[i].Name)
			switch {
			case ra.IsCycle || rb.IsCycle:
				if ra.IsCycle != rb.IsCycle || ra.Cycle != rb.Cycle {
					*out = append(*out, Change{
						Path: childPath, Old: ra.Hash, New: rb.Hash, CycleChanged: true,
					})
				}
			case ra.Hash != rb.Hash:
				if err := s.diffNodes(childPath, ra.Hash, rb.Hash, out); err != nil {
					return err
				}
			}
			i++
			j++
		}
	}
	return nil
}

// CatchUp copies the blob graph under root from this store into dst,
// pruning every subtree whose root blob dst already holds: because blobs
// are written post-order (children before parents, both here and in
// Snapshot), holding a node implies holding its whole subtree. It returns
// how many blobs were copied and how many subtrees were pruned — the
// hash-diff replica catch-up: a replica that already has yesterday's tree
// fetches only the changed spine.
func (s *Store) CatchUp(dst cas.Backend, root cas.Hash) (copied, pruned int, err error) {
	err = s.catchUp(dst, root, &copied, &pruned)
	return copied, pruned, err
}

func (s *Store) catchUp(dst cas.Backend, h cas.Hash, copied, pruned *int) error {
	ok, err := dst.Has(h)
	if err != nil {
		return fmt.Errorf("catch-up has %s: %w", h, err)
	}
	if ok {
		*pruned++
		return nil
	}
	data, node, err := loadNode(s.cs, h)
	if err != nil {
		return err
	}
	if node.Kind == KindDir {
		for _, e := range node.Entries {
			if e.Ref.IsCycle {
				continue
			}
			if err := s.catchUp(dst, e.Ref.Hash, copied, pruned); err != nil {
				return err
			}
		}
	}
	// Children first: dst gains the parent only after its whole subtree,
	// preserving the pruning invariant for the next catch-up.
	if err := dst.Put(h, data); err != nil {
		return fmt.Errorf("catch-up store %s: %w", h, err)
	}
	*copied++
	return nil
}
