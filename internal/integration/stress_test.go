package integration

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"namecoherence/internal/core"
	"namecoherence/internal/machine"
	"namecoherence/internal/newcastle"
)

// A soak over the whole stack: many goroutine "users" fork processes,
// resolve local and cross-machine names, and mutate their private contexts
// concurrently, while a churn goroutine creates and removes files in a
// shared spool directory. The test asserts liveness, absence of races
// (run with -race), and that stable names never resolve to the wrong
// entity.
func TestConcurrentNewcastleSoak(t *testing.T) {
	w := core.NewWorld()
	s, err := newcastle.NewSystem(w, "m1", "m2", "m3")
	if err != nil {
		t.Fatal(err)
	}
	stable := make(map[string]core.Entity)
	for _, mn := range s.MachineNames() {
		m, _ := s.Machine(mn)
		f, err := m.Tree.Create(core.ParsePath("etc/stable"), "pinned@"+mn)
		if err != nil {
			t.Fatal(err)
		}
		stable["/../"+mn+"/etc/stable"] = f
		if _, err := m.Tree.MkdirAll(core.PathOf("spool")); err != nil {
			t.Fatal(err)
		}
	}

	var wrong atomic.Int64
	var resolved atomic.Int64
	stop := make(chan struct{})
	var churnWG, userWG sync.WaitGroup

	// Churn goroutine: create/remove spool files on every machine.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			mn := s.MachineNames()[i%3]
			m, _ := s.Machine(mn)
			name := core.Name(fmt.Sprintf("job%03d", i%50))
			p := core.PathOf("spool", name)
			if _, err := m.Tree.Create(p, "x"); err != nil {
				_ = m.Tree.Detach(core.PathOf("spool"), name)
			}
			i++
		}
	}()

	// User goroutines.
	for u := 0; u < 8; u++ {
		userWG.Add(1)
		go func(u int) {
			defer userWG.Done()
			mn := s.MachineNames()[u%3]
			proc, err := s.Spawn(mn, fmt.Sprintf("user%d", u))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 300; i++ {
				// Fork a child, let it resolve, change its cwd.
				child := proc.Fork("child")
				for name, want := range stable {
					got, err := child.Resolve(name)
					if err != nil || got != want {
						wrong.Add(1)
					}
					resolved.Add(1)
				}
				// Spool names may or may not exist — both outcomes legal.
				_, _ = child.Resolve(fmt.Sprintf("/spool/job%03d", i%50))
				if home, err := proc.Resolve("/spool"); err == nil {
					child.Ctx.Bind(machine.CwdName, home)
					_, _ = child.Resolve(fmt.Sprintf("job%03d", i%50))
				}
			}
		}(u)
	}

	// Wait for the users, then stop the churner.
	userWG.Wait()
	close(stop)
	churnWG.Wait()

	if wrong.Load() != 0 {
		t.Fatalf("%d wrong resolutions of stable names", wrong.Load())
	}
	if resolved.Load() < 8*300*3 {
		t.Fatalf("only %d stable resolutions", resolved.Load())
	}
}

// Forked machine processes mutating their contexts concurrently never
// observe each other's mutations (context copy-on-fork isolation).
func TestForkIsolationUnderConcurrency(t *testing.T) {
	w := core.NewWorld()
	m := machine.New(w, "m")
	if _, err := m.Tree.Create(core.ParsePath("d/f"), "x"); err != nil {
		t.Fatal(err)
	}
	parent := m.Spawn("parent")
	d, err := parent.Resolve("/d")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			child := parent.Fork(fmt.Sprintf("c%d", i))
			for j := 0; j < 200; j++ {
				if j%2 == 0 {
					child.Ctx.Bind(machine.CwdName, d)
				} else {
					child.Ctx.Bind(machine.CwdName, m.Tree.Root)
				}
				if _, err := child.Resolve("/d/f"); err != nil {
					t.Errorf("child %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// The parent's cwd was never touched.
	if parent.Ctx.Lookup(machine.CwdName) != m.Tree.Root {
		t.Fatal("parent cwd mutated by children")
	}
}
