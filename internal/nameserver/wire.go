// Wire protocol of the name service: every type that crosses a
// connection is declared here, in one place, so the protocol surface is
// auditable at a glance. request and response are the two messages; every
// other wire type is reached through their fields, which is how the
// round-trip test (TestWireRoundTrip) finds and fills each one.
//
// The protocol is tagged and multiplexed: every request carries a
// client-assigned ID, the server echoes it in the response, and neither
// side assumes responses arrive in request order. N callers can therefore
// share one connection with N requests in flight — the server resolves
// them on a worker pool and writes answers as they complete.

package nameserver

import "namecoherence/internal/core"

// Mutation opcodes carried in request.Op. Zero means "not a mutation":
// the request is a resolve, batch, routing fetch, or subscription. The
// non-zero values are exported because the cluster replicator re-issues
// committed mutations to backup replicas using the same opcodes.
const (
	opNone      uint8 = iota
	OpBind            // bind Name in the directory at Path to Target
	OpUnbind          // remove the binding for Name in the directory at Path
	OpMkcontext       // create a directory named Name under the directory at Path
)

// request is one message from client to server. ID tags the request for
// multiplexing; exactly one request form is used per message: a single
// resolve (Path with Op zero), a batched resolve (Paths — one round-trip
// resolves every element), a routing fetch (Routes — cluster clients
// bootstrap the shard map from any member), a subscription (Subscribe —
// the server pushes one invalidation frame per revision advance for the
// rest of the connection), or a mutation (Op non-zero — bind, unbind or
// mkcontext against the exported graph, under the revision discipline).
type request struct {
	// ID is the client-assigned pipelining tag, echoed verbatim in the
	// response so the client can pair answers with in-flight calls.
	// Clients assign IDs monotonically per connection; the server treats
	// them as opaque.
	ID uint64
	// Path is the compound name, each component a length-prefixed string
	// on the wire. For a mutation it names the directory being mutated
	// (empty: the export root). A client sends its caller's path as it is:
	// the send check (checkCanonical) vouches for it.
	Path core.Path
	// Paths, when non-empty, is a batch of compound names.
	Paths []core.Path
	// Routes requests the server's routing table.
	Routes bool
	// Subscribe registers this connection for push invalidation: from the
	// acknowledging response on, every revision advance is fanned out to
	// the connection as an unsolicited Invalidation frame.
	Subscribe bool
	// Op is the mutation opcode (opBind, opUnbind, opMkcontext); zero for
	// non-mutating requests.
	Op uint8
	// Name is the binding being created or removed by a mutation.
	Name string
	// Target identifies the entity Name is bound to (opBind only): the
	// entity's ID and kind as previously resolved over this protocol.
	Target     uint64
	TargetKind uint8
	// AtRev, when non-zero, tags a replicated apply: the mutation was
	// already committed by the shard's primary at this revision, and the
	// replica must adopt it (monotonically) rather than mint its own.
	AtRev uint64
	// Twin, for a replicated opMkcontext apply, is the entity ID of the
	// directory the primary created, so the replica can register its own
	// fresh directory in the same replica group — keeping weak coherence
	// measurable across the write path.
	Twin uint64
}

// result is one resolution outcome inside a batched response.
type result struct {
	// ID and Kind identify the resolved entity (0 on failure).
	ID   uint64
	Kind uint8
	// Err carries the failure message, empty on success.
	Err string
	// Dir is the entity of the directory the name's final component was
	// looked up in, as response.Dir reports it for a single resolve.
	Dir uint64
}

// response is the server's answer — or, with Invalidation set, a
// server-initiated push frame. Responses may be written out of request
// order; ID says which request each one answers.
type response struct {
	// ID echoes the request's pipelining tag. Push invalidation frames
	// answer no request and carry ID 0, which clients never assign.
	ID uint64
	// Ent and Kind identify the resolved entity (0 on failure). A
	// mutation that creates an entity (mkcontext) reports it here.
	Ent  uint64
	Kind uint8
	// Rev is the server's binding revision at answer time; coherent client
	// caches purge stale entries when it advances. For a batch it covers
	// every element; for a mutation it is the revision the mutation
	// committed at; for an invalidation frame it is the revision pushed.
	Rev uint64
	// Err carries the failure message, empty on success.
	Err string
	// Results answers a batched request, in request order.
	Results []result
	// Routes answers a routing fetch.
	Routes *RouteInfo
	// Invalidation marks a server-initiated push frame: the exported
	// graph changed and caches vouched for below Rev are stale. Sent only
	// on subscribed connections (see request.Subscribe).
	Invalidation bool
	// Dir, on a resolve, is the entity of the directory the final component
	// was looked up in, as that directory's watch knows it — what a cache
	// needs to know to tell which pushed frames concern the answer. Zero is
	// "unknown": a directory no watch covers, whose changes no frame will
	// name; every frame concerns such an answer.
	// On an invalidation frame Dir and Name say which binding changed: the
	// commit at Rev bound or unbound Name in directory Dir, and neither the
	// old nor the new target is a directory, so only names whose final
	// lookup is that pair can resolve differently. A frame with Dir zero
	// says only that the revision advanced: anything may have changed.
	Dir uint64
	// Name is the binding an invalidation frame reports (see Dir); empty
	// on every other message.
	Name string
}

// RouteInfo describes a sharded deployment of one logical naming graph:
// which shard serves each first-component prefix, and where every shard
// listens. Servers of a cluster all carry the same RouteInfo, so a client
// can bootstrap from any one member.
type RouteInfo struct {
	// Prefixes maps a name's first component to the index of the shard
	// serving that subtree.
	Prefixes map[string]int
	// Default is the shard for names whose first component has no entry
	// (including the root shard of the cluster).
	Default int
	// Addrs lists the shards' primary dial addresses, indexed by shard.
	Addrs []string
	// Replicas, when non-nil, lists every replica address per shard
	// (Replicas[i][0] == Addrs[i]). All replicas of a shard serve replicas
	// of the same subtree, so any of them can answer for the shard — the
	// weak-coherence contract of §3, applied to the servers themselves.
	Replicas [][]string
}
