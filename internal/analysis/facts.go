package analysis

import (
	"bytes"
	"encoding/json"
	"sort"
)

// ModulePath is the module this analysis suite serves. Facts are only
// computed for (and expected from) packages inside it; everything else —
// the standard library in particular — contributes zero-value summaries,
// which can hide a problem but never invent one.
const ModulePath = "namecoherence"

// factsMagic versions the vetx payload. The vet driver caches .vetx files
// across tool rebuilds keyed on the tool's -V=full hash, but being explicit
// costs one line and makes a stale or foreign file decode to "no facts"
// instead of garbage.
// v2 added the allocation facts (Allocates/EscapesToHeap/AllocVia); v3
// added the lock-order facts (AcquiresLocks/LockEdges/ChanBlocks); v4
// folded Blocks and ChanBlocks into MayPark and dropped the facts nobody
// read; v5 writes the table as one JSON object keyed by function instead
// of a list of key/summary pairs. A file from another tool build decodes
// to "no facts" rather than a table whose fields mean something else.
var factsMagic = []byte("namingvet-facts-v5\n")

// EncodeFacts serializes summaries for a .vetx facts file. encoding/json
// writes map keys in sorted order, so the output is deterministic
// (detrand would want nothing less).
func EncodeFacts(s Summaries) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return append(append([]byte(nil), factsMagic...), payload...), nil
}

// DecodeFacts parses a facts file. A payload without our magic (including
// the pre-facts "no facts" placeholder) decodes to ok=false, which callers
// treat as an empty summary table.
func DecodeFacts(data []byte) (Summaries, bool) {
	payload, found := bytes.CutPrefix(data, factsMagic)
	if !found {
		return nil, false
	}
	var s Summaries
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, false
	}
	return s, true
}

// SortedKeys returns m's keys in sorted order, so whatever walks a map —
// fact propagation, edge emission — does it deterministically
// (detrand would want nothing less).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
