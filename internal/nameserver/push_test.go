package nameserver

import (
	"net"
	"sync"
	"testing"
	"time"

	"namecoherence/internal/core"
)

// What an invalidation frame carries, and where in the stream it goes
// (DESIGN §5c): one frame per commit, naming the binding when only names
// ending at that binding can have moved, and no response at revision r
// ahead of the frame of a commit at or below r.

// subscribeRaw subscribes r and returns the revision of the ack.
func subscribeRaw(t *testing.T, r *rawConn) uint64 {
	t.Helper()
	r.send(request{ID: 1, Subscribe: true})
	ack := r.recv()
	if ack.ID != 1 || ack.Invalidation {
		t.Fatalf("subscribe ack = %+v", ack)
	}
	return ack.Rev
}

// wantFrame reads the next frame and requires the invalidation described.
func wantFrame(t *testing.T, r *rawConn, what string, rev uint64, dir core.Entity, name string) {
	t.Helper()
	got := r.recv()
	if !got.Invalidation || got.ID != 0 || got.Rev != rev || got.Dir != uint64(dir.ID) || got.Name != name {
		t.Fatalf("%s: frame = %+v, want the invalidation {rev %d, dir %d, name %q}", what, got, rev, dir.ID, name)
	}
}

// TestFramesSayWhatChanged: a bind or unbind whose old and new targets are
// both non-directories is announced as {rev, dir, name}, whether it came
// over the wire, through the server, or straight into the context; anything
// structural — a directory made, bound or unbound, a bare Bump, a revision
// jump — is announced as {rev} alone.
func TestFramesSayWhatChanged(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	r, _ := rawPipe(t, s)
	rev := subscribeRaw(t, r)
	bin, err := tr.Lookup(core.ParsePath("usr/bin"))
	if err != nil {
		t.Fatal(err)
	}
	usr, _ := tr.Lookup(core.ParsePath("usr"))
	usrBin := core.ParsePath("usr/bin")
	next := func() uint64 { rev++; return rev }

	if _, err := s.Bind(usrBin, "twin", f); err != nil {
		t.Fatal(err)
	}
	wantFrame(t, r, "server bind of a file", next(), bin, "twin")

	binCtx, _ := w.ContextOf(bin)
	binCtx.Unbind("twin")
	wantFrame(t, r, "in-process unbind of a file", next(), bin, "twin")

	wire := pipeClient(t, s)
	if _, err := wire.Bind(usrBin, "wired", f); err != nil {
		t.Fatal(err)
	}
	wantFrame(t, r, "wire bind of a file", next(), bin, "wired")

	// A response on the subscribed connection says where its last
	// component was looked up — the same entity the frames name.
	r.send(resolveReq(7, core.ParsePath("usr/bin/wired")))
	if resp := r.recv(); resp.ID != 7 || resp.Ent != uint64(f.ID) || resp.Dir != uint64(bin.ID) || resp.Name != "" {
		t.Fatalf("resolve of usr/bin/wired = %+v, want entity %d looked up in %d", resp, f.ID, bin.ID)
	}
	r.send(resolveReq(8, core.ParsePath("usr")))
	if resp := r.recv(); resp.ID != 8 || resp.Ent != uint64(usr.ID) || resp.Dir != uint64(tr.Root.ID) {
		t.Fatalf("resolve of usr = %+v, want entity %d looked up in the export root, %d", resp, usr.ID, tr.Root.ID)
	}

	if _, _, err := s.applyMutation(mutation{op: OpMkcontext, dir: usrBin, name: "sub"}); err != nil {
		t.Fatal(err)
	}
	wantFrame(t, r, "mkcontext", next(), core.Undefined, "")
	if _, err := s.Bind(nil, "alias", bin); err != nil {
		t.Fatal(err)
	}
	wantFrame(t, r, "bind of a directory", next(), core.Undefined, "")
	if _, err := s.Unbind(nil, "alias"); err != nil {
		t.Fatal(err)
	}
	wantFrame(t, r, "unbind of a directory", next(), core.Undefined, "")
	s.Bump()
	wantFrame(t, r, "bare Bump", next(), core.Undefined, "")
	rev += 10
	s.SetRevision(rev)
	wantFrame(t, r, "revision jump", rev, core.Undefined, "")

	// A bind in the export root is a leaf change like any other: the root
	// was watched under its own entity.
	if _, err := s.Bind(nil, "top", f); err != nil {
		t.Fatal(err)
	}
	wantFrame(t, r, "bind of a file in the export root", next(), tr.Root, "top")
}

// TestUnionExportPushesOnlyRevisions: once the export reaches a directory
// that is not a BasicContext, a leaf bind anywhere can change what an
// intermediate step of some other name yields (the union's upper layer
// shadows a directory in the lower), so every frame says "everything".
func TestUnionExportPushesOnlyRevisions(t *testing.T) {
	w, tr, f := exportedTree(t)
	bin, _ := tr.Lookup(core.ParsePath("usr/bin"))
	binCtx, _ := w.ContextOf(bin)
	overlay := w.NewObject("overlay")
	if err := w.SetState(overlay, core.Union(core.NewContext(), binCtx)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(nil, "overlay", overlay); err != nil {
		t.Fatal(err)
	}
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	r, _ := rawPipe(t, s)
	rev := subscribeRaw(t, r)
	for i, name := range []core.Name{"a", "b"} {
		if _, err := s.Bind(core.ParsePath("usr/bin"), name, f); err != nil {
			t.Fatal(err)
		}
		wantFrame(t, r, "leaf bind under a union export", rev+uint64(i)+1, core.Undefined, "")
	}
	r.send(resolveReq(9, core.ParsePath("overlay/ls")))
	if resp := r.recv(); resp.Ent != uint64(f.ID) || resp.Dir != 0 {
		t.Fatalf("resolve through the union = %+v, want entity %d with no directory", resp, f.ID)
	}

	// An export that comes to reach a union later turns coarse then.
	w2, tr2, f2 := exportedTree(t)
	s2 := NewServer(w2, tr2.RootContext())
	s2.WatchExport(tr2.Root)
	r2, _ := rawPipe(t, s2)
	rev = subscribeRaw(t, r2)
	bin2, _ := tr2.Lookup(core.ParsePath("usr/bin"))
	if _, err := s2.Bind(core.ParsePath("usr/bin"), "leaf", f2); err != nil {
		t.Fatal(err)
	}
	wantFrame(t, r2, "leaf bind before the union", rev+1, bin2, "leaf")
	late := w2.NewObject("late")
	if err := w2.SetState(late, core.Union(core.NewContext())); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Bind(nil, "late", late); err != nil {
		t.Fatal(err)
	}
	wantFrame(t, r2, "bind of the union", rev+2, core.Undefined, "")
	if _, err := s2.Unbind(core.ParsePath("usr/bin"), "leaf"); err != nil {
		t.Fatal(err)
	}
	wantFrame(t, r2, "leaf unbind after the union", rev+3, core.Undefined, "")
}

// TestSlowSubscriberCollapses: a subscriber that stops reading is owed at
// most maxPendingInvalidations frames; past that, what it missed collapses
// into one {rev} frame, and when it reads again the stream still ends at
// the server's revision.
func TestSlowSubscriberCollapses(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	s.WatchExport(tr.Root)
	r, _ := rawPipe(t, s)
	last := subscribeRaw(t, r)
	const commits = 3*maxPendingInvalidations + 10
	usrBin := core.ParsePath("usr/bin")
	for i := 0; i < commits/2; i++ { // the pipe has no buffer: nothing gets out
		if _, err := s.Bind(usrBin, "churn", f); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Unbind(usrBin, "churn"); err != nil {
			t.Fatal(err)
		}
	}
	frames, whole := 0, 0
	for last < s.Revision() {
		fr := r.recv()
		if !fr.Invalidation || fr.Rev <= last {
			t.Fatalf("frame %d = %+v after revision %d", frames, fr, last)
		}
		if fr.Dir == 0 {
			whole++
		} else if fr.Rev != last+1 {
			t.Fatalf("frame %+v names a binding but skips from revision %d", fr, last)
		}
		last = fr.Rev
		frames++
	}
	if whole == 0 || frames > 2*maxPendingInvalidations+2 {
		t.Fatalf("%d frames (%d of them {rev}) for %d commits nobody read, want the backlog collapsed", frames, whole, commits)
	}
}

// orderChecker reads one subscribed connection's frames and holds the
// stream to the ordering invariant: invalidations ascend, and no response
// carries a revision above the last invalidation before it.
func orderChecker(t *testing.T, r *rawConn, ack uint64, responses int) (frames int) {
	seen := ack
	for got := 0; got < responses; {
		// Not r.recv: this runs beside the test's goroutine, where a failed
		// read may only t.Error.
		body, err := readFrame(r.br, &r.buf)
		var fr response
		if err == nil {
			err = parseResponse(body, &fr, &r.errs)
		}
		if err != nil {
			t.Errorf("waiting for a frame: %v", err)
			return frames
		}
		switch {
		case fr.Invalidation:
			if fr.Rev <= seen {
				t.Errorf("invalidation for revision %d after one for %d", fr.Rev, seen)
			}
			seen = fr.Rev
			frames++
		case fr.Rev > seen:
			t.Errorf("response %d at revision %d arrived before the invalidation of anything above %d", fr.ID, fr.Rev, seen)
			return frames
		default:
			got++
		}
	}
	return frames
}

// TestNoResponseOvertakesItsInvalidation: eight pipelined readers, each on
// its own subscribed connection with a pool of workers answering, race a
// writer. Every frame is checked in arrival order.
func TestNoResponseOvertakesItsInvalidation(t *testing.T) {
	for _, transport := range []string{"pipe", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			w, tr, paths := flushTree(t)
			s := serverWithWorkers(w, tr.RootContext(), 4)
			s.WatchExport(tr.Root)
			dial := func() *rawConn { r, _ := rawPipe(t, s); return r }
			if transport == "tcp" {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go s.Serve(ln)
				t.Cleanup(s.Close)
				dial = func() *rawConn {
					conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { _ = conn.Close() })
					return rawOver(t, conn)
				}
			}

			const readers, bursts, burst = 8, 40, 16
			stop := make(chan struct{})
			var writer, wg sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				f, _ := tr.Lookup(paths[0])
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := s.Bind(core.ParsePath("dir"), "victim", f); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Unbind(core.ParsePath("dir"), "victim"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			total := make([]int, readers)
			for g := 0; g < readers; g++ {
				r := dial()
				ack := subscribeRaw(t, r)
				wg.Add(2)
				go func() { // the sender: bursts of pipelined resolves
					defer wg.Done()
					reqs := make([]request, burst)
					for b := 0; b < bursts; b++ {
						for i := range reqs {
							reqs[i] = resolveReq(uint64(2+b*burst+i), paths[(g+i)%len(paths)])
						}
						if _, err := r.conn.Write(framed(reqs...)); err != nil { // not r.send: off the test's goroutine
							t.Error(err)
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					total[g] = orderChecker(t, r, ack, bursts*burst)
				}()
			}
			wg.Wait()
			close(stop)
			writer.Wait()
			frames := 0
			for _, n := range total {
				frames += n
			}
			if frames == 0 {
				t.Fatal("no invalidation raced the readers: the test proved nothing")
			}
		})
	}
}

// TestInteropInvalidationPush verifies the push path (server-initiated
// ID-0 frames) end to end through the client: a subscribed client must see
// the invalidation a mutation triggers.
func TestInteropInvalidationPush(t *testing.T) {
	w, tr, f := exportedTree(t)
	s := NewServer(w, tr.RootContext())
	c := pipeClient(t, s)

	seen := make(chan uint64, 4)
	if err := c.Subscribe(func(rev uint64) { seen <- rev }); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if _, err := c.Bind(core.ParsePath("usr/bin"), "pushed", f); err != nil {
		t.Fatalf("bind: %v", err)
	}
	select {
	case <-seen:
	case <-time.After(2 * time.Second):
		t.Fatal("no invalidation push arrived")
	}
}
