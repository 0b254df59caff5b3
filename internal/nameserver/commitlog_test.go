package nameserver

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"namecoherence/internal/core"
)

// modelEntry is what the reference model remembers of one append: the log
// under test trims, the model — a plain slice — never does.
type modelEntry struct {
	rev     uint64
	dir     core.EntityID
	name    core.Name
	payload bool
}

// wantRetained is the retention rule, stated independently of trim: the log
// holds everything from the slowest pinned cursor up, and never fewer than
// the newest maxPendingInvalidations entries.
func wantRetained(head uint64, pins []uint64) int {
	keep := head - min(head, maxPendingInvalidations)
	for _, p := range pins {
		keep = min(keep, p)
	}
	return int(head - keep)
}

// TestCommitLogAgainstModel drives the log and an append-only slice with
// one seeded interleaving of append / subscriber read / pin / follower
// advance / unpin and holds the log to the model: a subscriber is handed
// the model's entries in order, none skipped, unless it is told {rev} for
// the head because it fell more than maxPendingInvalidations behind; a
// follower is handed exactly the model's payloads from its pin on, in
// order; a keeper is told the distinct directories the model's entries
// since its position name, or "everything" when one of them names none or
// the position is no longer retained — and holds nothing in the log by
// asking; and after every step the log retains what the two retention rules
// say and nothing more.
func TestCommitLogAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := NewServer(nil, nil)
			l := &s.log
			var model []modelEntry
			subs := make([]uint64, 3) // subscriber cursors, all starting at the empty log's head
			type pin struct {
				f   *Follower
				pos uint64
			}
			var pins []pin
			rev := uint64(0)
			keeper := uint64(0) // the keeper's position: moved by its owner, unknown to the log

			check := func(step int, op string) {
				t.Helper()
				head := uint64(len(model))
				if got := l.head.Load(); got != head {
					t.Fatalf("step %d (%s): head = %d, model has %d entries", step, op, got, head)
				}
				pos := make([]uint64, len(pins))
				for i, p := range pins {
					pos[i] = p.pos
					if behind, _, _ := p.f.Lag(); behind != int(head-p.pos) {
						t.Fatalf("step %d (%s): follower %d lag = %d, want head − cursor = %d", step, op, i, behind, head-p.pos)
					}
				}
				if got, want := len(l.entries), wantRetained(head, pos); got != want {
					t.Fatalf("step %d (%s): log retains %d entries, want %d (head %d, pins %v)", step, op, got, want, head, pos)
				}
			}

			for step := 0; step < 6000; step++ {
				switch op := rng.Intn(100); {
				case op < 55: // append, in bursts so subscribers do fall behind
					for n := rng.Intn(40) + 1; n > 0; n-- {
						rev += uint64(rng.Intn(3) + 1) // SetRevision-style jumps included
						e := modelEntry{rev: rev}
						if rng.Intn(3) > 0 {
							e.dir, e.name = core.EntityID(rng.Intn(5)+1), core.Name(fmt.Sprint("n", rng.Intn(9)))
						}
						if rng.Intn(2) == 0 {
							// A local mutation: staged, so recorded only if a follower is pinned.
							l.stage(mutation{op: OpBind, name: e.name})
							e.payload = len(pins) > 0
						}
						l.append(commit{rev: e.rev, dir: e.dir, name: e.name})
						model = append(model, e)
					}
					check(step, "append")
				case op < 60: // the keeper asks what changed; its snapshot then succeeds (it moves up) or fails (it stays)
					head := uint64(len(model))
					pos := make([]uint64, len(pins))
					for i, p := range pins {
						pos[i] = p.pos
					}
					wantAll := head-keeper > uint64(wantRetained(head, pos))
					want := map[core.EntityID]bool{}
					for _, m := range model[keeper:] {
						wantAll = wantAll || m.dir == 0
						want[m.dir] = true
					}
					dirs, gotHead, all := s.ChangedSince(keeper)
					if gotHead != head || all != wantAll {
						t.Fatalf("step %d: keeper at %d of %d told head %d, everything=%v; want everything=%v", step, keeper, head, gotHead, all, wantAll)
					}
					if !all && (len(dirs) != len(want) || !slices.IsSorted(dirs)) {
						t.Fatalf("step %d: keeper at %d of %d told %v, model names %v", step, keeper, head, dirs, want)
					}
					for _, d := range dirs {
						if !want[d] {
							t.Fatalf("step %d: keeper told of directory %d, which no entry since %d names", step, d, keeper)
						}
					}
					if rng.Intn(4) > 0 {
						keeper = head
					}
					check(step, "keeper")
				case op < 80: // one subscriber reads some of what it is owed
					i := rng.Intn(len(subs))
					for n := rng.Intn(200); n > 0; n-- {
						head := uint64(len(model))
						e, after, ok := l.next(subs[i])
						switch {
						case subs[i] == head:
							if ok {
								t.Fatalf("step %d: subscriber at the head was handed %+v", step, e)
							}
						case !ok:
							t.Fatalf("step %d: subscriber at %d of %d was handed nothing", step, subs[i], head)
						case head-subs[i] > maxPendingInvalidations:
							if want := (commit{rev: model[head-1].rev}); e != want || after != head {
								t.Fatalf("step %d: subscriber %d behind got %+v → %d, want {rev} of the head → %d", step, head-subs[i], e, after, head)
							}
						default:
							m := model[subs[i]]
							if e.rev != m.rev || e.dir != m.dir || e.name != m.name || after != subs[i]+1 {
								t.Fatalf("step %d: subscriber at %d got %+v → %d, model has %+v", step, subs[i], e, after, m)
							}
						}
						subs[i] = after
					}
					check(step, "read")
				case op < 86 && len(pins) < 3: // pin
					pins = append(pins, pin{s.Follow(), uint64(len(model))})
					check(step, "pin")
				case op < 96 && len(pins) > 0: // a follower settles some of its backlog
					p := &pins[rng.Intn(len(pins))]
					for n := rng.Intn(60); n > 0; n-- {
						at := p.pos
						for at < uint64(len(model)) && !model[at].payload {
							at++
						}
						if at == uint64(len(model)) {
							break // nothing to replicate ahead: Next would park
						}
						m, ok := p.f.Next()
						if !ok || m.m.name != model[at].name || m.m.atRev != model[at].rev {
							t.Fatalf("step %d: follower at %d got %+v, %v; model's next payload is %+v at %d", step, p.pos, m, ok, model[at], at)
						}
						p.f.Advance(false)
						p.pos = at + 1
					}
					check(step, "advance")
				case len(pins) > 0: // unpin
					i := rng.Intn(len(pins))
					pins[i].f.Close()
					pins = append(pins[:i], pins[i+1:]...)
					check(step, "unpin")
				}
			}
			for _, p := range pins {
				p.f.Close()
			}
		})
	}
}

// TestCommitLogRetention pins the two retention rules at their edges: with
// nothing pinned the log never holds more than maxPendingInvalidations
// entries, however many are appended; with a cursor pinned at k it holds
// exactly head − k; and unpinning trims back to the unpinned bound at once.
func TestCommitLogRetention(t *testing.T) {
	const appends = 3*maxPendingInvalidations + 10
	s := NewServer(nil, nil)
	for i := 0; i < appends; i++ {
		s.Bump()
		if n := len(s.log.entries); n > maxPendingInvalidations {
			t.Fatalf("unpinned log holds %d entries after %d appends", n, i+1)
		}
	}
	f := s.Follow()
	k := s.log.head.Load()
	for i := 0; i < appends; i++ {
		s.log.stage(mutation{op: OpUnbind, name: "x"})
		s.Bump()
	}
	if n, want := len(s.log.entries), int(s.log.head.Load()-k); n != want || want != appends {
		t.Fatalf("log pinned at %d holds %d entries at head %d, want %d", k, n, s.log.head.Load(), want)
	}
	if behind, retained, refused := f.Lag(); behind != appends || retained != appends || refused != 0 {
		t.Fatalf("Lag = %d, %d, %d; want %d, %d, 0", behind, retained, refused, appends, appends)
	}
	f.Close()
	if n := len(s.log.entries); n != maxPendingInvalidations {
		t.Fatalf("log holds %d entries after its only cursor was unpinned, want %d", n, maxPendingInvalidations)
	}
	// Nothing pinned again: a write records no payload.
	s.log.stage(mutation{op: OpUnbind, name: "x"})
	s.Bump()
	if m := s.log.at(s.log.head.Load() - 1).mut; m != nil {
		t.Fatalf("unpinned log recorded the payload %+v", m)
	}
}

// TestKeeperReadsAnUnpinnedLog is a lone durable server whose keeper never
// ticks: nobody subscribes, nobody follows, and the only reader of the log
// asks once at shutdown. The log must not retain on its account, and a
// write must not stage a payload for it; what it is told is still right —
// "everything" once its position is off the tail or a directory was made,
// the one directory written to otherwise — and it can still ask after Close.
func TestKeeperReadsAnUnpinnedLog(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	bin, err := tr.Lookup(core.ParsePath("usr/bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := core.ParsePath("usr/bin")
	for i := 0; i < 5000; i++ {
		if _, err := s.Bind(dir, "x", f); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Unbind(dir, "x"); err != nil {
			t.Fatal(err)
		}
		if s.log.staged != nil || s.log.pinned.Load() != 0 {
			t.Fatalf("write %d staged %+v with %d cursors pinned: nobody replicates this server", i, s.log.staged, s.log.pinned.Load())
		}
		if n := len(s.log.entries); n > maxPendingInvalidations {
			t.Fatalf("log holds %d entries after %d writes nobody read", n, 2*(i+1))
		}
	}
	dirs, head, all := s.ChangedSince(0)
	if !all || head != 10000 || dirs != nil {
		t.Fatalf("ChangedSince(0) after 10000 writes = %v, %d, %v; want everything at 10000", dirs, head, all)
	}
	if dirs, _, all := s.ChangedSince(head - maxPendingInvalidations); all || len(dirs) != 1 || dirs[0] != bin.ID {
		t.Fatalf("ChangedSince(oldest retained) = %v, %v; want only usr/bin (%d)", dirs, all, bin.ID)
	}
	if dirs, at, all := s.ChangedSince(head); all || at != head || len(dirs) != 0 {
		t.Fatalf("ChangedSince(head) = %v, %d, %v; want nothing", dirs, at, all)
	}
	if _, _, err := s.applyMutation(mutation{op: OpMkcontext, dir: dir, name: "sub"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, at, all := s.ChangedSince(head); !all || at != head+1 {
		t.Fatalf("ChangedSince past a mkcontext, on a closed server = %d, %v; want everything at %d", at, all, head+1)
	}
}

// TestParkedFollowerReturnsOnClose: an applier parked in Next on a log with
// nothing to replicate is released — Next reports false, Wait returns —
// when its server closes and when the follower itself is closed.
func TestParkedFollowerReturnsOnClose(t *testing.T) {
	for _, who := range []string{"server", "follower"} {
		t.Run(who, func(t *testing.T) {
			s := NewServer(nil, nil)
			f := s.Follow()
			s.Bump() // an entry with nothing to replicate: Next skips it and parks
			parked := make(chan bool, 1)
			go func() {
				_, ok := f.Next()
				parked <- ok
			}()
			select {
			case ok := <-parked:
				t.Fatalf("Next returned %v with nothing to replicate", ok)
			case <-time.After(20 * time.Millisecond):
			}
			if who == "server" {
				s.Close()
			} else {
				f.Close()
			}
			select {
			case ok := <-parked:
				if ok {
					t.Fatal("Next handed a closed follower a mutation")
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Next still parked after the %s closed", who)
			}
			f.Wait() // must not block either
			f.Close()
		})
	}
}
