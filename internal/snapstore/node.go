package snapstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
)

// NodeKind discriminates the blob forms a naming-graph entity serializes
// to.
type NodeKind uint8

const (
	// KindDir is a context object: a sorted list of (name, ref) bindings.
	KindDir NodeKind = iota + 1
	// KindFile is a regular file: content plus embedded compound names.
	KindFile
	// KindOpaque is an entity the store cannot open (an activity or an
	// object with foreign state): identity survives, state does not.
	KindOpaque
)

// nodeMagic and nodeVersion frame every node blob. Bump the version when
// the canonical encoding changes — old blobs stay readable by their hash,
// they just stop being produced.
const (
	nodeMagic   = 'N'
	nodeVersion = 1
)

// Ref is a directory entry's target: either the hash of an independently
// stored subtree, or a cycle reference — the distance up the DFS stack to
// an ancestor (0 = the node itself, 1 = its parent), the canonical form of
// a link back into the current access path such as a ".." parent link.
// Cycle references are the store's relative names: they are re-resolved
// against the access path on restore.
type Ref struct {
	Hash    cas.Hash
	Cycle   uint32
	IsCycle bool
}

// Entry is one binding of a directory node.
type Entry struct {
	Name core.Name
	Ref  Ref
}

// Node is the decoded form of one blob. Labels are deliberately absent
// from dir and file nodes: identity is structure, and a restored entity
// takes its label from the name that binds it — only opaque leaves, whose
// label is all that survives, carry one.
type Node struct {
	Kind NodeKind
	// EntityKind records whether a dir node's entity was an object or an
	// activity (activities may carry context state too); file nodes are
	// always objects.
	EntityKind core.Kind
	// Entries are a dir node's bindings, sorted by name.
	Entries []Entry
	// Content and Embedded are a file node's payload.
	Content  string
	Embedded []core.Path
	// Label is an opaque leaf's debug label.
	Label string
}

// Encode renders the node in canonical form. Entries are sorted in place:
// canonical bytes never depend on insertion order.
func (n *Node) Encode() []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, nodeMagic, nodeVersion, byte(n.Kind))
	switch n.Kind {
	case KindDir:
		buf = append(buf, byte(n.EntityKind))
		sort.Slice(n.Entries, func(i, j int) bool { return n.Entries[i].Name < n.Entries[j].Name })
		buf = binary.AppendUvarint(buf, uint64(len(n.Entries)))
		for _, e := range n.Entries {
			buf = appendString(buf, string(e.Name))
			if e.Ref.IsCycle {
				buf = append(buf, 1)
				buf = binary.AppendUvarint(buf, uint64(e.Ref.Cycle))
			} else {
				buf = append(buf, 0)
				buf = append(buf, e.Ref.Hash[:]...)
			}
		}
	case KindFile:
		buf = appendString(buf, n.Content)
		buf = binary.AppendUvarint(buf, uint64(len(n.Embedded)))
		for _, p := range n.Embedded {
			buf = appendPath(buf, p)
		}
	case KindOpaque:
		buf = append(buf, byte(n.EntityKind))
		buf = appendString(buf, n.Label)
	}
	return buf
}

// DecodeNode parses a canonical node blob.
func DecodeNode(data []byte) (*Node, error) {
	r := newReader(data)
	if r.Byte() != nodeMagic || r.Byte() != nodeVersion {
		return nil, fmt.Errorf("node header: %w", ErrTruncated)
	}
	n := &Node{Kind: NodeKind(r.Byte())}
	switch n.Kind {
	case KindDir:
		n.EntityKind = core.Kind(r.Byte())
		count := r.Uvarint()
		if count > uint64(r.Len()) {
			return nil, fmt.Errorf("entry count %d: %w", count, ErrTruncated)
		}
		for i := uint64(0); i < count; i++ {
			e := Entry{Name: core.Name(r.String())}
			switch r.Byte() {
			case 1:
				e.Ref.IsCycle = true
				e.Ref.Cycle = uint32(r.Uvarint())
			case 0:
				copy(e.Ref.Hash[:], r.Fixed(cas.HashSize))
			default:
				return nil, fmt.Errorf("entry ref tag: %w", ErrTruncated)
			}
			n.Entries = append(n.Entries, e)
		}
	case KindFile:
		n.EntityKind = core.KindObject
		n.Content = r.String()
		count := r.Uvarint()
		if count > uint64(r.Len()) {
			return nil, fmt.Errorf("embedded count %d: %w", count, ErrTruncated)
		}
		for i := uint64(0); i < count; i++ {
			n.Embedded = append(n.Embedded, r.Path())
		}
	case KindOpaque:
		n.EntityKind = core.Kind(r.Byte())
		n.Label = r.String()
	default:
		return nil, fmt.Errorf("node kind %d: %w", n.Kind, ErrTruncated)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return n, nil
}
