package pqi

import (
	"errors"
	"testing"
	"testing/quick"

	"namecoherence/internal/netsim"
)

func TestPIDLevelAndValid(t *testing.T) {
	tests := []struct {
		give      PID
		wantLevel int
	}{
		{PID{0, 0, 0}, 0},
		{PID{0, 0, 5}, 1},
		{PID{0, 3, 5}, 2},
		{PID{1, 3, 5}, 3},
		{PID{1, 0, 5}, -1}, // net without machine
		{PID{1, 3, 0}, -1}, // net+machine without local
		{PID{0, 3, 0}, -1}, // machine without local
	}
	for _, tt := range tests {
		t.Run(tt.give.String(), func(t *testing.T) {
			if got := tt.give.Level(); got != tt.wantLevel {
				t.Fatalf("Level = %d, want %d", got, tt.wantLevel)
			}
		})
	}
}

func TestAbsolute(t *testing.T) {
	holder := netsim.Addr{Net: 9, Mach: 8, Local: 7}
	tests := []struct {
		give PID
		want netsim.Addr
	}{
		{PID{0, 0, 0}, holder},
		{PID{0, 0, 3}, netsim.Addr{Net: 9, Mach: 8, Local: 3}},
		{PID{0, 5, 3}, netsim.Addr{Net: 9, Mach: 5, Local: 3}},
		{PID{2, 5, 3}, netsim.Addr{Net: 2, Mach: 5, Local: 3}},
	}
	for _, tt := range tests {
		t.Run(tt.give.String(), func(t *testing.T) {
			got, err := Absolute(tt.give, holder)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("Absolute = %v, want %v", got, tt.want)
			}
		})
	}
	if _, err := Absolute(PID{1, 0, 5}, holder); !errors.Is(err, ErrMalformed) {
		t.Fatalf("malformed err = %v", err)
	}
}

func TestRelativize(t *testing.T) {
	holder := netsim.Addr{Net: 1, Mach: 2, Local: 3}
	tests := []struct {
		name   string
		target netsim.Addr
		want   PID
	}{
		{name: "self", target: holder, want: PID{}},
		{name: "same machine", target: netsim.Addr{Net: 1, Mach: 2, Local: 9}, want: PID{0, 0, 9}},
		{name: "same network", target: netsim.Addr{Net: 1, Mach: 7, Local: 9}, want: PID{0, 7, 9}},
		{name: "other network", target: netsim.Addr{Net: 4, Mach: 7, Local: 9}, want: PID{4, 7, 9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Relativize(tt.target, holder); got != tt.want {
				t.Fatalf("Relativize = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRelativizeAt(t *testing.T) {
	holder := netsim.Addr{Net: 1, Mach: 2, Local: 3}
	sameMach := netsim.Addr{Net: 1, Mach: 2, Local: 9}
	sameNet := netsim.Addr{Net: 1, Mach: 7, Local: 9}
	otherNet := netsim.Addr{Net: 4, Mach: 7, Local: 9}

	if p, err := RelativizeAt(sameMach, holder, 1); err != nil || p != (PID{0, 0, 9}) {
		t.Fatalf("level1 = %v, %v", p, err)
	}
	if _, err := RelativizeAt(sameNet, holder, 1); !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("level1 cross-machine err = %v", err)
	}
	if p, err := RelativizeAt(sameNet, holder, 2); err != nil || p != (PID{0, 7, 9}) {
		t.Fatalf("level2 = %v, %v", p, err)
	}
	if _, err := RelativizeAt(otherNet, holder, 2); !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("level2 cross-network err = %v", err)
	}
	if p, err := RelativizeAt(otherNet, holder, 3); err != nil || p != (PID{4, 7, 9}) {
		t.Fatalf("level3 = %v, %v", p, err)
	}
	if _, err := RelativizeAt(otherNet, holder, 0); !errors.Is(err, ErrBadLevel) {
		t.Fatalf("level0 err = %v", err)
	}
	if _, err := RelativizeAt(otherNet, holder, 4); !errors.Is(err, ErrBadLevel) {
		t.Fatalf("level4 err = %v", err)
	}
}

// Property: Absolute(Relativize(target, holder), holder) == target for all
// complete addresses — relativization round-trips.
func TestRelativizeAbsoluteRoundTrip(t *testing.T) {
	f := func(tn, tm, tl, hn, hm, hl uint16) bool {
		target := netsim.Addr{Net: uint32(tn) + 1, Mach: uint32(tm) + 1, Local: uint32(tl) + 1}
		holder := netsim.Addr{Net: uint32(hn) + 1, Mach: uint32(hm) + 1, Local: uint32(hl) + 1}
		p := Relativize(target, holder)
		if p.Level() < 0 {
			return false
		}
		abs, err := Absolute(p, holder)
		return err == nil && abs == target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Map preserves meaning — the mapped pid denotes, in the
// receiver's context, the same process the original denoted in the
// sender's.
func TestMapPreservesMeaning(t *testing.T) {
	f := func(tn, tm, tl, sn, sm, sl, rn, rm, rl uint8) bool {
		target := netsim.Addr{Net: uint32(tn) + 1, Mach: uint32(tm) + 1, Local: uint32(tl) + 1}
		sender := netsim.Addr{Net: uint32(sn) + 1, Mach: uint32(sm) + 1, Local: uint32(sl) + 1}
		receiver := netsim.Addr{Net: uint32(rn) + 1, Mach: uint32(rm) + 1, Local: uint32(rl) + 1}

		p := Relativize(target, sender)
		mapped, err := Map(p, sender, receiver)
		if err != nil {
			return false
		}
		absAtReceiver, err := Absolute(mapped, receiver)
		return err == nil && absAtReceiver == target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapMalformed(t *testing.T) {
	s := netsim.Addr{Net: 1, Mach: 1, Local: 1}
	if _, err := Map(PID{1, 0, 1}, s, s); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

// Property: Relativize always yields the minimal qualification — no shorter
// valid pid denotes the target.
func TestRelativizeMinimal(t *testing.T) {
	f := func(tn, tm, tl, hn, hm, hl uint8) bool {
		target := netsim.Addr{Net: uint32(tn) + 1, Mach: uint32(tm) + 1, Local: uint32(tl) + 1}
		holder := netsim.Addr{Net: uint32(hn) + 1, Mach: uint32(hm) + 1, Local: uint32(hl) + 1}
		p := Relativize(target, holder)
		for lvl := 0; lvl < p.Level(); lvl++ {
			var shorter PID
			switch lvl {
			case 0:
				shorter = Self
			case 1:
				shorter = PID{Local: target.Local}
			case 2:
				shorter = PID{Mach: target.Mach, Local: target.Local}
			}
			if abs, err := Absolute(shorter, holder); err == nil && abs == target {
				return false // a shorter pid would have worked
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
