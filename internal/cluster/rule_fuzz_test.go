package cluster

import (
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/nameserver"
)

// FuzzCacheRule model-checks the push-mode cache rule (DESIGN §5c) in
// process, with no sockets: a byte string decodes to an interleaving of
// lookups, responses that fill the cache, precise and coarse frames,
// reconnects, commits and replication, delivered to a NewClient(...,
// WithLRU(n), WithPushInvalidation()) through the package's own admit,
// pushed and rebase — what Resolve, the connection's reader and
// maybeSubscribe call. A model of each shard's commit history says which
// value every binding had at every revision. Two properties:
//
//   - a hit never returns a binding the model retired at or below the last
//     frame the client consumed (a subscription's ack counts as one), nor an
//     entity of another binding;
//   - revs[shard] never decreases, except when a new connection re-bases
//     the shard (a new connection is a new history, DESIGN §5c).
//
// Poll mode is out of scope: TestPollModeAdmitsAStraggler pins its known
// counterexample.
func FuzzCacheRule(f *testing.F) {
	f.Add([]byte{})
	// Commit b0, deliver its frame, fill from a straggler, look it up.
	f.Add([]byte{3, 5, 5, 0, 2, 0, 1, 8, 0, 0})
	// Aliases: fill both names of b0, rebind b0, precise frame, look up both.
	f.Add([]byte{4, 1, 0, 1, 1, 5, 0, 2, 0, 0, 0, 0, 1})
	// Reconnect to a trailing backup, replicate, frames on it, fills.
	f.Add([]byte{2, 5, 1, 5, 2, 4, 1, 6, 0, 2, 0, 3, 1, 1, 0, 0, 0})
	// Reconnect left unbased, a commit and its early frame, then a fill.
	f.Add([]byte{2, 4, 0x80, 5, 0, 2, 0, 1, 8, 0, 0, 4, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := newRuleModel(t, 1+int(data[0]%8))
		for i := 1; i+1 < len(data) && i < 2*64; i += 2 {
			m.step(data[i], data[i+1])
		}
	})
}

// ruleBinding is one binding of a model shard: name in directory dir.
// Directory 3 is the shard's root, where its single-component key is
// bound; that binding's name is the shard prefix itself.
type ruleBinding struct {
	dir  int
	name string
}

var ruleBindings = []ruleBinding{{1, "a"}, {1, "b"}, {2, "a"}, {2, "b"}, {3, ""}}

// ruleKeys are a shard's names under its prefix, with the binding each ends
// at. d1 is bound under two names (d1 and alias), so two keys can end at
// one binding, as usr/bin/ls and mnt/bin/ls do.
var ruleKeys = []struct {
	suffix  string
	binding int
}{{"/d1/a", 0}, {"/alias/a", 0}, {"/d1/b", 1}, {"/alias/b", 1}, {"/d2/a", 2}, {"/d2/b", 3}, {"", 4}}

const (
	ruleShards   = 2
	ruleReplicas = 2
	structural   = -1 // a commit that changes no single binding
)

// ruleShard is one shard's history and the client's one live connection
// to it.
type ruleShard struct {
	commits []int                // commits[i] is what revision i+1 changed
	applied [ruleReplicas]uint64 // revision each replica has applied; the primary's is len(commits)
	replica int                  // the live connection's replica
	sub     *subscription
	ack     uint64 // its subscription's ack
	pos     uint64 // the newest revision its frames have delivered (from ack)
	seen    uint64 // the last frame, or re-basing ack, the client consumed
}

type ruleModel struct {
	t      *testing.T
	c      *Client
	shards [ruleShards]ruleShard
}

func newRuleModel(t *testing.T, capacity int) *ruleModel {
	routes := &nameserver.RouteInfo{Addrs: make([]string, ruleShards), Replicas: make([][]string, ruleShards)}
	for s := range routes.Addrs {
		routes.Addrs[s] = "never-dialed:0"
		routes.Replicas[s] = make([]string, ruleReplicas)
	}
	m := &ruleModel{t: t, c: NewClient("tcp", routes, WithLRU(capacity), WithPushInvalidation())}
	for s := range m.shards {
		m.connect(s, 0, true)
	}
	return m
}

func (m *ruleModel) prefix(s int) string { return string(rune('p' + s)) }

func (m *ruleModel) name(s, b int) string {
	if ruleBindings[b].name == "" {
		return m.prefix(s)
	}
	return ruleBindings[b].name
}

// dirID is replica r's entity for directory d: every replica numbers its
// own copy of the subtree.
func dirID(r, d int) core.EntityID { return core.EntityID(10*(r+1) + d) }

// version is the revision binding b's value at rev was made by (0: the
// initial value).
func (sh *ruleShard) version(b int, rev uint64) uint64 {
	for i := rev; i >= 1; i-- {
		if c := sh.commits[i-1]; c == b || c == structural {
			return i
		}
	}
	return 0
}

// retired is the revision that replaced binding b's value made at v, 0 if
// none has yet.
func (sh *ruleShard) retired(b int, v uint64) uint64 {
	for i := v + 1; i <= uint64(len(sh.commits)); i++ {
		if c := sh.commits[i-1]; c == b || c == structural {
			return i
		}
	}
	return 0
}

// entity encodes (shard, binding, version) as the value a lookup answers.
func ruleEntity(s, b int, v uint64) core.Entity {
	return core.Entity{ID: core.EntityID(1<<56 | uint64(s)<<48 | uint64(b)<<32 | v), Kind: core.KindObject}
}

func decodeRuleEntity(e core.Entity) (s, b int, v uint64) {
	id := uint64(e.ID)
	return int(id >> 48 & 0xff), int(id >> 32 & 0xffff), id & 0xffffffff
}

// connect opens a new connection to replica r; finish re-bases at once,
// else the re-base waits for a later reconnect step (the reader can consume
// frames, and callers can use the connection, before the subscribing
// goroutine gets to it).
func (m *ruleModel) connect(s, r int, finish bool) {
	sh := &m.shards[s]
	sh.replica, sh.sub = r, &subscription{replica: r}
	sh.ack = sh.applied[r]
	sh.pos = sh.ack
	if finish {
		m.rebase(s)
	}
}

func (m *ruleModel) rebase(s int) {
	sh := &m.shards[s]
	m.c.rebase(s, sh.sub, sh.ack)
	sh.seen = max(sh.ack, sh.sub.early)
}

func (m *ruleModel) frame(s int, iv nameserver.Invalidation) {
	sh := &m.shards[s]
	m.c.pushed(s, sh.sub, iv)
	sh.pos, sh.seen = iv.Rev, iv.Rev
}

// step decodes and runs one event, then checks revs.
func (m *ruleModel) step(op, arg byte) {
	s := int(op>>3) % ruleShards
	sh := &m.shards[s]
	before := m.revs()
	rebased := false
	switch op % 7 {
	case 0: // lookup
		m.lookup(s, int(arg)%len(ruleKeys))
	case 1: // a response on the live connection fills
		k := int(arg) % len(ruleKeys)
		rev := sh.pos - min(uint64(arg>>3&3), sh.pos-sh.ack)
		b := ruleKeys[k].binding
		e := cacheEntry{entity: ruleEntity(s, b, sh.version(b, rev)), shard: int32(s), replica: int32(sh.replica)}
		if arg&0x80 == 0 {
			e.dir = dirID(sh.replica, ruleBindings[b].dir)
		}
		m.c.mu.Lock()
		m.c.admit(s, rev, nil, m.prefix(s)+ruleKeys[k].suffix, e)
		m.c.mu.Unlock()
	case 2: // the next frame, describing its commit
		if sh.pos < sh.applied[sh.replica] {
			rev := sh.pos + 1
			iv := nameserver.Invalidation{Rev: rev}
			if b := sh.commits[rev-1]; b != structural {
				iv.Dir, iv.Name = dirID(sh.replica, ruleBindings[b].dir), core.Name(m.name(s, b))
			}
			m.frame(s, iv)
		}
	case 3: // a frame naming nothing, possibly collapsing several commits
		if sh.pos < sh.applied[sh.replica] {
			m.frame(s, nameserver.Invalidation{Rev: min(sh.pos+1+uint64(arg%4), sh.applied[sh.replica])})
		}
	case 4: // reconnect: finish a pending re-base, or open a new connection
		if !sh.sub.based {
			m.rebase(s)
		} else {
			m.connect(s, int(arg)%ruleReplicas, arg&0x80 == 0)
		}
		rebased = sh.sub.based
	case 5: // the primary commits
		b := int(arg) % (len(ruleBindings) + 1)
		if b == len(ruleBindings) {
			b = structural
		}
		sh.commits = append(sh.commits, b)
		sh.applied[0] = uint64(len(sh.commits))
	case 6: // the backups apply
		for r := 1; r < ruleReplicas; r++ {
			sh.applied[r] = min(sh.applied[r]+1+uint64(arg%4), sh.applied[0])
		}
	}
	after := m.revs()
	for i := range after {
		if after[i] < before[i] && !(rebased && i == s) {
			m.t.Fatalf("revs[%d] fell %d → %d on a live connection (op %d, arg %d)", i, before[i], after[i], op, arg)
		}
	}
}

func (m *ruleModel) revs() [ruleShards]uint64 {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	var out [ruleShards]uint64
	copy(out[:], m.c.revs)
	return out
}

// lookup probes the cache as Resolve does before it would go to the wire,
// and checks a hit against the model.
func (m *ruleModel) lookup(s, k int) {
	key := m.prefix(s) + ruleKeys[k].suffix
	m.c.mu.Lock()
	entry, ok := m.c.cache.Get(key)
	m.c.mu.Unlock()
	if !ok {
		return
	}
	sh := &m.shards[s]
	gs, gb, v := decodeRuleEntity(entry.entity)
	if b := ruleKeys[k].binding; gs != s || gb != b {
		m.t.Fatalf("%s hit answers shard %d binding %d, want shard %d binding %d", key, gs, gb, s, b)
	}
	if r := sh.retired(gb, v); r != 0 && r <= sh.seen {
		m.t.Fatalf("%s hit answers its value of revision %d, retired at %d; the client consumed revision %d (revs %d, history %v)",
			key, v, r, sh.seen, m.revs()[s], sh.commits)
	}
}
