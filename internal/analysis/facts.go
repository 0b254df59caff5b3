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
// read. A file from another tool build decodes to "no facts" rather than
// a table whose fields mean something else.
var factsMagic = []byte("namingvet-facts-v4\n")

// EncodeFacts serializes summaries for a .vetx facts file. Keys are sorted
// so the output is deterministic (detrand would want nothing less).
func EncodeFacts(s Summaries) ([]byte, error) {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]factEntry, len(keys))
	for i, k := range keys {
		ordered[i] = factEntry{Key: k, Summary: s[k]}
	}
	payload, err := json.Marshal(ordered)
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
	var ordered []factEntry
	if err := json.Unmarshal(payload, &ordered); err != nil {
		return nil, false
	}
	s := make(Summaries, len(ordered))
	for _, e := range ordered {
		s[e.Key] = e.Summary
	}
	return s, true
}

type factEntry struct {
	Key     string
	Summary FuncSummary
}
