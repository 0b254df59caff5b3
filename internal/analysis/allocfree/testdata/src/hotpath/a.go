// Package hotpath exercises allocfree's positive cases: annotated roots
// whose steady paths allocate, directly, transitively in-package, and
// through an imported package's exported facts.
package hotpath

import (
	"fmt"

	"namecoherence/internal/analysis/allocfree/testdata/src/hotpath/codec"
)

type request struct {
	ID   uint64
	Path []string
}

type server struct {
	scratch []byte
	table   map[string]uint64
	out     chan<- request
}

// serve is a root with direct violations of several evidence kinds.
//
//namingvet:allocfree
func (s *server) serve(req *request, key []byte) {
	m := make(map[string]uint64) // want `serve is marked //namingvet:allocfree but allocates: make\(map\) allocates`
	m["x"] = req.ID
	s.table[string(key)] = req.ID // want `serve is marked //namingvet:allocfree but allocates: string↔\[\]byte conversion copies`
	fmt.Println(req.ID)           // want `serve is marked //namingvet:allocfree but allocates: calls fmt\.Println, a known allocator`
	s.out <- *req
}

// relay is a root whose violation is two in-package hops away.
//
//namingvet:allocfree
func (s *server) relay(req *request) {
	s.forward(req)
}

func (s *server) forward(req *request) {
	s.pack(req)
}

func (s *server) pack(req *request) {
	s.scratch = append(s.scratch, byte(req.ID)) // amortized self-append: clean
	sink := any(*req)                           // want `relay is marked //namingvet:allocfree but its call chain relay → forward → pack allocates here: boxes hotpath\.request into any`
	_ = sink
}

// encode is a root whose violation lives in an imported package and
// arrives through the serialized EscapesToHeap fact.
//
//namingvet:allocfree
func (s *server) encode(req *request) {
	codec.Marshal(req.Path) // want `encode is marked //namingvet:allocfree but encode reaches namecoherence/internal/analysis/allocfree/testdata/src/hotpath/codec\.Marshal, which may allocate:`
}

// flush is a root with an exempt cold branch: the error construction is
// off the steady path and stays silent, the box on the steady path does
// not.
//
//namingvet:allocfree
func (s *server) flush(req *request) error {
	if req.ID == 0 {
		//namingvet:allocfree-exempt -- cold: malformed request teardown
		return fmt.Errorf("empty request %d", req.ID)
	}
	sink := any(req.Path) // want `flush is marked //namingvet:allocfree but allocates: boxes \[\]string into any`
	_ = sink
	return nil
}

// grow is a root using append without provable capacity reuse.
//
//namingvet:allocfree
func grow(dst, src []string) []string {
	tmp := append(src, "x") // want `grow is marked //namingvet:allocfree but allocates: append may grow its backing array \(capacity not provably reused\)`
	_ = tmp
	dst = append(dst, "y") // self-append: clean
	return dst
}

// escape is a root leaking a composite literal and a non-constant make.
//
//namingvet:allocfree
func escape(n int) *request {
	buf := make([]byte, n) // want `escape is marked //namingvet:allocfree but allocates: make\(\[\]T, n\) with non-constant size allocates`
	_ = buf
	return &request{ID: 1} // want `escape is marked //namingvet:allocfree but allocates: &hotpath\.request literal escapes to heap`
}

// declare is a root whose `var` declaration holds a literal it returns:
// the escape test follows the declared name to its escaping use.
//
//namingvet:allocfree
func declare(id uint64) *request {
	var r = &request{ID: id} // want `declare is marked //namingvet:allocfree but allocates: &hotpath\.request literal escapes to heap`
	return r
}

// teardown is wholly exempt: a root calling it stays clean even though
// its body allocates freely.
//
//namingvet:allocfree-exempt -- reconnect path, not steady-state
func (s *server) teardown() error {
	return fmt.Errorf("torn down: %v", s.table)
}

// cycle is a root that calls teardown (exempt, silent) and itself
// (recursion must terminate, not hang the analyzer).
//
//namingvet:allocfree
func (s *server) cycle(depth int) {
	if depth == 0 {
		_ = s.teardown()
		return
	}
	s.cycle(depth - 1)
}
