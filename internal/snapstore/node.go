package snapstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"namecoherence/internal/cas"
	"namecoherence/internal/core"
	"namecoherence/internal/varenc"
)

// The canonical encoding: node blobs are built from internal/varenc's
// primitives — the wire protocol's uvarints, length-prefixed strings and
// strict bools — plus compound names made of them. Everything the module
// writes to disk is a snapstore node blob, so there is exactly one on-disk
// context encoding and its determinism is decided here: no maps are
// iterated, no reflection runs, and every writer sorts before it appends.

// ErrTruncated is wrapped by every decode error caused by running out of
// bytes or reading malformed framing.
var ErrTruncated = errors.New("truncated or malformed encoding")

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
			buf = varenc.AppendString(buf, string(e.Name))
			buf = varenc.AppendBool(buf, e.Ref.IsCycle)
			if e.Ref.IsCycle {
				buf = binary.AppendUvarint(buf, uint64(e.Ref.Cycle))
			} else {
				buf = append(buf, e.Ref.Hash[:]...)
			}
		}
	case KindFile:
		buf = varenc.AppendString(buf, n.Content)
		buf = binary.AppendUvarint(buf, uint64(len(n.Embedded)))
		for _, p := range n.Embedded {
			buf = appendPath(buf, p)
		}
	case KindOpaque:
		buf = append(buf, byte(n.EntityKind))
		buf = varenc.AppendString(buf, n.Label)
	}
	return buf
}

// Node decode failures the reader cannot judge by itself.
var (
	errNodeHeader = errors.New("bad node header")
	errNodeKind   = errors.New("unknown node kind")
)

// DecodeNode parses a canonical node blob.
func DecodeNode(data []byte) (*Node, error) {
	r := varenc.NewReader(data)
	if r.Byte() != nodeMagic || r.Byte() != nodeVersion {
		r.Fail(errNodeHeader)
	}
	n := &Node{Kind: NodeKind(r.Byte())}
	switch n.Kind {
	case KindDir:
		n.EntityKind = core.Kind(r.Byte())
		for range r.Count() {
			e := Entry{Name: core.Name(r.Bytes())}
			if e.Ref.IsCycle = r.Bool(); e.Ref.IsCycle {
				e.Ref.Cycle = uint32(r.Uvarint())
			} else {
				copy(e.Ref.Hash[:], r.Fixed(cas.HashSize))
			}
			n.Entries = append(n.Entries, e)
		}
	case KindFile:
		n.EntityKind = core.KindObject
		n.Content = string(r.Bytes())
		for range r.Count() {
			n.Embedded = append(n.Embedded, readPath(&r))
		}
	case KindOpaque:
		n.EntityKind = core.Kind(r.Byte())
		n.Label = string(r.Bytes())
	default:
		r.Fail(errNodeKind)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	return n, nil
}

// loadNode fetches the blob stored under h and decodes it, returning the
// raw bytes too (CatchUp copies them on as read). A blob that is missing or
// does not decode leaves the graph under some root incomplete, so both
// failures wrap ErrBadSnapshot.
func loadNode(cs *cas.Store, h cas.Hash) ([]byte, *Node, error) {
	data, err := cs.Get(h)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w: %w", h, ErrBadSnapshot, err)
	}
	n, err := DecodeNode(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w: %w", h, ErrBadSnapshot, err)
	}
	return data, n, nil
}

// appendPath appends a compound name: component count, then each simple
// name length-prefixed.
func appendPath(buf []byte, p core.Path) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	for _, n := range p {
		buf = varenc.AppendString(buf, string(n))
	}
	return buf
}

// readPath decodes a compound name written by appendPath.
func readPath(r *varenc.Reader) core.Path {
	p := make(core.Path, r.Count())
	for i := range p {
		p[i] = core.Name(r.Bytes())
	}
	return p
}
