// Package steady is allocfree's negative fixture: annotated roots whose
// steady paths are genuinely allocation-free, plus the idioms the escape
// approximation must not convict — amortized self-append, non-escaping
// locals, pointer-shaped boxing, map-index string conversions, constant
// makes that stay on the stack, and exempt cold branches. No function
// here may be reported by allocfree itself; the two stale exemptions at
// the bottom are the suppression audit's positive cases.
package steady

import "errors"

type entry struct {
	ID  uint64
	Gen uint32
}

type cache struct {
	table   map[string]entry
	scratch []byte
	hits    uint64
}

var errMiss = errors.New("miss")

// lookup is a clean root: map reads, integer math, a stack-only constant
// make, and a []byte→string conversion elided as a map index.
//
//namingvet:allocfree
func (c *cache) lookup(key []byte) (entry, error) {
	var probe [8]byte
	copy(probe[:], key)
	e, ok := c.table[string(key)]
	if !ok {
		return entry{}, errMiss
	}
	c.hits++
	return e, nil
}

// encode is a clean root: self-append into a reused scratch buffer, the
// pattern the binary codec is built on.
//
//namingvet:allocfree
func (c *cache) encode(e entry) {
	c.scratch = c.scratch[:0]
	for i := 0; i < 8; i++ {
		c.scratch = append(c.scratch, byte(e.ID>>(8*uint(i))))
	}
}

// admit is a clean root calling clean helpers: the closure is invoked
// immediately (captures stay on the stack) and the pointer passed along
// is pointer-shaped, so nothing boxes.
//
//namingvet:allocfree
func (c *cache) admit(e entry) bool {
	newer := func() bool { return e.Gen > c.table[""].Gen }()
	if newer {
		c.bump(&e)
	}
	return newer
}

func (c *cache) bump(e *entry) {
	c.hits++
	_ = e.ID
}

// evict is a clean root with an exempt cold branch: teardown allocates,
// but teardown is //namingvet:allocfree-exempt and stays silent.
//
//namingvet:allocfree
func (c *cache) evict(force bool) {
	if force {
		c.teardown()
	}
	c.hits = 0
}

// teardown rebuilds the table — a cold, allocating path by design.
//
//namingvet:allocfree-exempt -- cold: full rebuild on forced eviction
func (c *cache) teardown() {
	c.table = make(map[string]entry)
}

// compare is a clean root: string conversions in comparisons are elided
// by the compiler and must not be flagged.
//
//namingvet:allocfree
func compare(a []byte, b string) bool {
	return string(a) == b
}

// localOnly is a clean root: composite literals and addresses that never
// leave the frame stay on the stack.
//
//namingvet:allocfree
func localOnly(n uint64) uint64 {
	e := entry{ID: n}
	p := &e
	p.Gen = 1
	buf := make([]byte, 16)
	buf[0] = byte(n)
	return p.ID + uint64(buf[0])
}

// declaredLocal is a clean root: a `var` declaration whose literal is
// only read through the declared name never leaves the frame.
//
//namingvet:allocfree
func declaredLocal(n uint64) uint64 {
	var p = &entry{ID: n}
	p.Gen = 2
	return p.ID + uint64(p.Gen)
}

// frozen is pure arithmetic; its whole-function exemption outlived the
// code it once covered and the audit reports it.
//
//namingvet:allocfree-exempt -- stale: the formatting moved out long ago // want `unused suppression: steady\.frozen has no allocation evidence for this allocfree-exempt directive to exempt`
func frozen(x uint64) uint64 {
	return x * 2
}

// counterReset is clean, and its line exemption covers nothing.
//
//namingvet:allocfree
func (c *cache) counterReset() {
	//namingvet:allocfree-exempt -- stale: the rebuild moved to teardown // want `unused suppression: no allocation evidence on the lines this allocfree-exempt directive covers`
	c.hits = 0
}
