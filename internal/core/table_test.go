package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// tableNames holds, for each home h in a 16-slot table (so h&7 in an
// 8-slot one), four names whose hash puts them there under this process's
// seed. An op byte picks a home, not a name, so a fuzz input means the same
// collisions in every process whatever the seed.
var tableNames = sync.OnceValue(func() (pool [16][4]Name) {
	var filled [16]int
	for i, left := 0, 16*4; left > 0; i++ {
		n := Name(fmt.Sprintf("k%d", i))
		if h, _ := hashName(n); filled[h&15] < 4 {
			pool[h&15][filled[h&15]] = n
			filled[h&15]++
			left--
		}
	}
	return pool
})

// tableShapes is what a sequence of table ops reached: the states the
// fuzz target must cover.
type tableShapes struct {
	full8        bool // an 8-slot table with every slot taken
	wrapped      bool // a run that wraps past the last slot to the first
	deleteInRun  bool // a delete that moved a later slot of its run back
	rebindInFull bool // a rebind in a full table (no growth)
}

// runTableOps applies ops to a table and to a map model and fails at the
// first difference. An op byte is kind<<6 | variant<<4 | home:
// kinds 0 and 1 bind the name (home, variant) to a fresh entity, kind 2
// deletes it, kind 3 rebinds the (byte mod bound)-th bound name.
func runTableOps(t *testing.T, ops []byte) (seen tableShapes) {
	pool := tableNames()
	var tb table
	model := map[Name]Entity{}
	for step, b := range ops {
		n := pool[b&15][(b>>4)&3]
		e := Entity{ID: EntityID(step + 1), Kind: Kind(1 + step%2)}
		var got, want Entity
		switch b >> 6 {
		case 0, 1:
			got, want = tb.put(n, e), model[n]
			model[n] = e
		case 2:
			before := slotsOf(&tb)
			got, want = tb.del(n), model[n]
			delete(model, n)
			for name, i := range slotsOf(&tb) {
				if before[name] != i {
					seen.deleteInRun = true
				}
			}
		case 3:
			if len(model) == 0 {
				continue
			}
			names := make([]Name, 0, len(model))
			for name := range model {
				names = append(names, name)
			}
			sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
			n = names[int(b)%len(names)]
			size := len(tb.slots)
			got, want = tb.put(n, e), model[n]
			model[n] = e
			if size == len(tb.slots) && tb.n == size {
				seen.rebindInFull = true
			}
		}
		if got != want {
			t.Fatalf("step %d (op %#x, %q): old binding %v, model %v", step, b, n, got, want)
		}
		checkTable(t, step, &tb, model, pool)
		l := len(tb.slots)
		seen.full8 = seen.full8 || (l == 8 && tb.n == 8)
		for i, s := range tb.slots {
			if h, _ := hashName(s.name); s.tag != 0 && int(h)&(l-1) > i {
				seen.wrapped = true
			}
		}
	}
	return seen
}

// checkTable holds tb to model: count, every pool name's lookup, the set
// each visits, and the size and load rules.
func checkTable(t *testing.T, step int, tb *table, model map[Name]Entity, pool [16][4]Name) {
	t.Helper()
	if tb.n != len(model) {
		t.Fatalf("step %d: table holds %d, model %d", step, tb.n, len(model))
	}
	for _, names := range pool {
		for _, n := range names {
			if got := tb.get(n); got != model[n] {
				t.Fatalf("step %d: get(%q) = %v, model %v", step, n, got, model[n])
			}
		}
	}
	visited := 0
	tb.each(func(n Name, e Entity) {
		visited++
		if model[n] != e {
			t.Fatalf("step %d: each gave %q → %v, model %v", step, n, e, model[n])
		}
	})
	if visited != len(model) {
		t.Fatalf("step %d: each visited %d, model holds %d", step, visited, len(model))
	}
	l := len(tb.slots)
	if l != 0 && (l < minSlots || l&(l-1) != 0) {
		t.Fatalf("step %d: %d slots, want a power of two ≥ %d", step, l, minSlots)
	}
	if l > minSlots && tb.n > l-l/8 {
		t.Fatalf("step %d: %d of %d slots taken, past 7/8", step, tb.n, l)
	}
}

// slotsOf maps each bound name to its slot.
func slotsOf(tb *table) map[Name]int {
	m := map[Name]int{}
	for i, s := range tb.slots {
		if s.tag != 0 {
			m[s.name] = i
		}
	}
	return m
}

// op builds one op byte (see runTableOps).
func op(kind, variant, home byte) byte { return kind<<6 | variant<<4 | home }

// tableSeeds are the fuzz corpus; TestBindingTableSeedsCover holds them to
// reaching every shape in tableShapes.
var tableSeeds = [][]byte{
	// Homes 0..7 fill an 8-slot table; a rebind keeps it full; a ninth
	// name doubles it.
	{op(0, 0, 0), op(0, 0, 1), op(0, 0, 2), op(0, 0, 3), op(0, 0, 4), op(0, 0, 5),
		op(0, 0, 6), op(0, 0, 7), op(3, 0, 5), op(0, 1, 3)},
	// Three names homed at the last slot wrap to the first two; deleting
	// the first moves both back, and the run is walked again.
	{op(0, 0, 7), op(0, 1, 7), op(0, 0, 15), op(2, 0, 7), op(0, 2, 7), op(2, 0, 15)},
	// Eight names on one home fill the table as a single run; deletes in
	// the middle and at the ends, then refills.
	{op(0, 0, 3), op(0, 1, 3), op(0, 2, 3), op(0, 3, 3), op(0, 0, 11), op(0, 1, 11),
		op(0, 2, 11), op(0, 3, 11), op(2, 2, 3), op(2, 0, 11), op(2, 3, 11), op(0, 2, 3),
		op(0, 0, 11), op(3, 1, 0)},
	// Growth past 16 and 32 slots, then deletes across every home.
	func() (b []byte) {
		for v := byte(0); v < 4; v++ {
			for h := byte(0); h < 16; h++ {
				b = append(b, op(1, v, h))
			}
		}
		for h := byte(0); h < 16; h++ {
			b = append(b, op(2, h%4, h), op(3, 0, h))
		}
		return b
	}(),
}

// FuzzBindingTable holds the binding table to a map model over put,
// delete and rebind sequences (see runTableOps for the op encoding).
func FuzzBindingTable(f *testing.F) {
	for _, s := range tableSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runTableOps(t, ops) })
}

// TestBindingTableSeedsCover checks the corpus reaches the shapes the
// table's probe and delete loops special-case: a full 8-slot table, a run
// that wraps, a delete that shifts its run back and a rebind in place.
func TestBindingTableSeedsCover(t *testing.T) {
	var all tableShapes
	for _, s := range tableSeeds {
		got := runTableOps(t, s)
		all.full8 = all.full8 || got.full8
		all.wrapped = all.wrapped || got.wrapped
		all.deleteInRun = all.deleteInRun || got.deleteInRun
		all.rebindInFull = all.rebindInFull || got.rebindInFull
	}
	if all != (tableShapes{true, true, true, true}) {
		t.Fatalf("seed corpus reached %+v, want every shape", all)
	}
}
