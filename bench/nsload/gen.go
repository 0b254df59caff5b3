package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"

	"namecoherence/internal/core"
)

// The tree every workload serves: 16×16×16 directories of 8 files, so
// 32 768 leaf names at depth 4, plus 64 victim names the writer rebinds.
const (
	fanout    = 16
	filesPer  = 8
	numLeaves = fanout * fanout * fanout * filesPer
	numVictim = 64

	// opNames is the length of the generated name stream. Callers start at
	// evenly spaced offsets and wrap, so a run of any length replays the
	// same seeded stream; it is long against every cache in the system.
	opNames = 1 << 21

	zipfS     = 1.1
	batchEach = 8  // on zipf workloads every 8th op is a batch...
	batchSize = 16 // ...of this many names
)

// inputs is everything a run derives from its seed. nsd receives only the
// spec file; the rest stays in the generator.
type inputs struct {
	seed    uint64
	leaves  []core.Path // leaf index -> /tAA/dBB/sCC/fD
	uniform []uint32    // leaf indices drawn uniformly
	zipf    []uint32    // leaf indices drawn Zipf(1.1) through a seeded permutation
	// victims are the names the writer rebinds, all in /t00/d00/s00; each
	// starts bound to targets[0] and toggles between the two targets.
	victimDir   core.Path
	victims     []core.Name
	targets     [2]core.Path
	victimOrder []uint8 // victim index for write cycle k (wraps)
}

func rngFor(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func leafString(i int) string {
	f := i % filesPer
	s := i / filesPer % fanout
	d := i / (filesPer * fanout) % fanout
	t := i / (filesPer * fanout * fanout)
	return fmt.Sprintf("/t%02d/d%02d/s%02d/f%d", t, d, s, f)
}

// generate derives every op stream from seed.
func generate(seed uint64) *inputs {
	in := &inputs{
		seed:      seed,
		leaves:    make([]core.Path, numLeaves),
		victimDir: core.ParsePath("/t00/d00/s00"),
		targets:   [2]core.Path{core.ParsePath("/t00/d00/s01/f0"), core.ParsePath("/t00/d00/s01/f1")},
	}
	for i := range in.leaves {
		in.leaves[i] = core.ParsePath(leafString(i))
	}
	in.victims = make([]core.Name, numVictim)
	for v := range in.victims {
		in.victims[v] = core.Name(fmt.Sprintf("v%02d", v))
	}

	r := rngFor(seed, 1)
	in.uniform = make([]uint32, opNames)
	for i := range in.uniform {
		in.uniform[i] = uint32(r.IntN(numLeaves))
	}
	// Zipf ranks are mapped through a seeded permutation so the hot names
	// are spread over every directory. Even ranks go to even-numbered /tNN
	// and odd to odd: nsd deals top-level directories to its two shards in
	// turn, so whatever the seed, each shard serves half of every stretch of
	// the popularity curve — a writer purges one shard's cache entries, and
	// which shard held the hottest name must not decide a run.
	r = rngFor(seed, 2)
	const perT, half = numLeaves / fanout, numLeaves / 2
	leaf := func(j, parity int) int { return (2*(j/perT)+parity)*perT + j%perT }
	evens, odds := r.Perm(half), r.Perm(half)
	perm := make([]int, numLeaves)
	for k := 0; k < half; k++ {
		perm[2*k], perm[2*k+1] = leaf(evens[k], 0), leaf(odds[k], 1)
	}
	z := rand.NewZipf(r, zipfS, 1, numLeaves-1)
	in.zipf = make([]uint32, opNames)
	for i := range in.zipf {
		in.zipf[i] = uint32(perm[z.Uint64()])
	}
	r = rngFor(seed, 3)
	in.victimOrder = make([]uint8, 1<<14)
	for i := range in.victimOrder {
		in.victimOrder[i] = uint8(r.IntN(numVictim))
	}
	return in
}

// writeSpec writes the treespec nsd serves. File contents are seeded but
// every directory holds the same eight, so a durable nsd's first commit
// stores a few dozen blobs, not 37 000. Each stored blob costs two fsyncs:
// with every content distinct the initial snapshot alone took over a
// minute, and set-up and recovery times were the disk's, not the
// program's. Snapshots still walk and hash every node.
func (in *inputs) writeSpec(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r := rngFor(in.seed, 0)
	var content [filesPer]uint32
	for i := range content {
		content[i] = r.Uint32()
	}
	for i := 0; i < numLeaves; i++ {
		if i%filesPer == 0 {
			s := leafString(i)
			fmt.Fprintf(w, "dir %s\n", s[:len(s)-3])
		}
		fmt.Fprintf(w, "file %s \"%08x\"\n", leafString(i), content[i%len(content)])
	}
	for v := range in.victims {
		fmt.Fprintf(w, "link /%s/%s /%s\n", in.victimDir, in.victims[v], in.targets[0])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (in *inputs) victimPath(v int) core.Path {
	return in.victimDir.Append(in.victims[v])
}
