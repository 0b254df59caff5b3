package netsim

import (
	"errors"
	"testing"
)

func TestAddrString(t *testing.T) {
	a := Addr{Net: 1, Mach: 2, Local: 3}
	if got := a.String(); got != "(1,2,3)" {
		t.Fatalf("String = %q", got)
	}
}

func TestAddrIsComplete(t *testing.T) {
	tests := []struct {
		give Addr
		want bool
	}{
		{Addr{1, 2, 3}, true},
		{Addr{0, 2, 3}, false},
		{Addr{1, 0, 3}, false},
		{Addr{1, 2, 0}, false},
		{Addr{}, false},
	}
	for _, tt := range tests {
		if got := tt.give.IsComplete(); got != tt.want {
			t.Errorf("%v.IsComplete() = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestRegisterAndSend(t *testing.T) {
	n := NewNetwork()
	a := Addr{1, 1, 1}
	b := Addr{1, 1, 2}
	epA, err := n.Register(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(b); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(b, a, "hello"); err != nil {
		t.Fatal(err)
	}
	m, ok := epA.TryRecv()
	if !ok {
		t.Fatal("no message")
	}
	if m.Payload != "hello" || m.From != b || m.To != a {
		t.Fatalf("message = %+v", m)
	}
	if _, ok := epA.TryRecv(); ok {
		t.Fatal("spurious second message")
	}
}

func TestRegisterErrors(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Register(Addr{0, 1, 1}); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	a := Addr{1, 1, 1}
	if _, err := n.Register(a); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(a); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestSendUnreachable(t *testing.T) {
	n := NewNetwork()
	if err := n.Send(Addr{1, 1, 1}, Addr{1, 1, 9}, "x"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestRenumberMachine(t *testing.T) {
	n := NewNetwork()
	a1 := Addr{1, 5, 1}
	a2 := Addr{1, 5, 2}
	other := Addr{1, 6, 1}
	ep1, err := n.Register(a1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(a2); err != nil {
		t.Fatal(err)
	}
	epOther, err := n.Register(other)
	if err != nil {
		t.Fatal(err)
	}

	moved, err := n.RenumberMachine(1, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("moved = %d, want 2", moved)
	}
	if got := ep1.Addr(); got != (Addr{1, 7, 1}) {
		t.Fatalf("endpoint addr = %v", got)
	}
	if got := epOther.Addr(); got != other {
		t.Fatal("unrelated endpoint renumbered")
	}

	// Stale address no longer reachable; new one is.
	if err := n.Send(other, a1, "stale"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("stale send err = %v, want ErrUnreachable", err)
	}
	if err := n.Send(other, Addr{1, 7, 1}, "fresh"); err != nil {
		t.Fatal(err)
	}
	if m, ok := ep1.TryRecv(); !ok || m.Payload != "fresh" {
		t.Fatal("fresh address did not deliver")
	}
}

func TestRenumberMachineErrors(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Register(Addr{1, 5, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(Addr{1, 7, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RenumberMachine(1, 5, 7); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("collision err = %v, want ErrDuplicate", err)
	}
	if _, err := n.RenumberMachine(1, 99, 100); !errors.Is(err, ErrNoSuchTarget) {
		t.Fatalf("missing err = %v, want ErrNoSuchTarget", err)
	}
}

func TestRenumberNetwork(t *testing.T) {
	n := NewNetwork()
	ep, err := n.Register(Addr{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(Addr{2, 1, 1}); err != nil {
		t.Fatal(err)
	}
	moved, err := n.RenumberNetwork(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d", moved)
	}
	if got := ep.Addr(); got != (Addr{3, 1, 1}) {
		t.Fatalf("addr = %v", got)
	}
	if _, err := n.RenumberNetwork(3, 2); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("collision err = %v", err)
	}
	if _, err := n.RenumberNetwork(99, 100); !errors.Is(err, ErrNoSuchTarget) {
		t.Fatalf("missing err = %v", err)
	}
}

func TestPendingCount(t *testing.T) {
	n := NewNetwork()
	a := Addr{1, 1, 1}
	ep, err := n.Register(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Send(Addr{1, 1, 2}, a, i); err != nil {
			t.Fatal(err)
		}
	}
	// FIFO order.
	for i := 0; i < 3; i++ {
		m, ok := ep.TryRecv()
		if !ok || m.Payload != i {
			t.Fatalf("message %d = %+v", i, m)
		}
	}
}
