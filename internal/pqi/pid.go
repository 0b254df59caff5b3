package pqi

import (
	"errors"
	"fmt"

	"namecoherence/internal/netsim"
)

// PID is a partially qualified process identifier (naddr, maddr, laddr).
// Zero components are unqualified. The well-formed qualification levels are
// (0,0,0), (0,0,l), (0,m,l) and (n,m,l).
type PID struct {
	Net, Mach, Local uint32
}

// Self is the pid (0,0,0), usable by any process to refer to itself.
var Self = PID{}

// Errors returned by pid operations.
var (
	ErrMalformed    = errors.New("malformed pid qualification")
	ErrUnresolvable = errors.New("pid does not resolve in this context")
	ErrBadLevel     = errors.New("qualification level out of range")
)

// String renders the pid as "(n,m,l)".
func (p PID) String() string {
	return fmt.Sprintf("(%d,%d,%d)", p.Net, p.Mach, p.Local)
}

// Level returns the qualification level: 0 for (0,0,0), 1 for (0,0,l),
// 2 for (0,m,l), 3 for (n,m,l). Malformed pids return -1.
func (p PID) Level() int {
	switch {
	case p.Net == 0 && p.Mach == 0 && p.Local == 0:
		return 0
	case p.Net == 0 && p.Mach == 0:
		return 1
	case p.Net == 0 && p.Local != 0:
		return 2
	case p.Net != 0 && p.Mach != 0 && p.Local != 0:
		return 3
	default:
		return -1
	}
}

// Absolute resolves the pid in the context of a process at holder: each
// unqualified component is taken from the holder's address. This is the
// meaning of a pid relative to its context of reference.
func Absolute(p PID, holder netsim.Addr) (netsim.Addr, error) {
	switch p.Level() {
	case 0:
		return holder, nil
	case 1:
		return netsim.Addr{Net: holder.Net, Mach: holder.Mach, Local: p.Local}, nil
	case 2:
		return netsim.Addr{Net: holder.Net, Mach: p.Mach, Local: p.Local}, nil
	case 3:
		return netsim.Addr{Net: p.Net, Mach: p.Mach, Local: p.Local}, nil
	default:
		return netsim.Addr{}, fmt.Errorf("absolute of %v: %w", p, ErrMalformed)
	}
}

// Relativize returns the minimally qualified pid that denotes target in the
// context of a process at holder — "qualified only as far as necessary".
func Relativize(target, holder netsim.Addr) PID {
	switch {
	case target == holder:
		return Self
	case target.Net == holder.Net && target.Mach == holder.Mach:
		return PID{Local: target.Local}
	case target.Net == holder.Net:
		return PID{Mach: target.Mach, Local: target.Local}
	default:
		return PID{Net: target.Net, Mach: target.Mach, Local: target.Local}
	}
}

// RelativizeAt returns the pid for target in holder's context at a forced
// qualification level (1..3). It fails if the requested level cannot denote
// the target from the holder (e.g. level 1 across machines). Level 3 is the
// conventional fully qualified baseline. Used by the ablation on
// qualification level.
func RelativizeAt(target, holder netsim.Addr, level int) (PID, error) {
	switch level {
	case 1:
		if target.Net != holder.Net || target.Mach != holder.Mach {
			return PID{}, fmt.Errorf("level 1 pid for %v from %v: %w", target, holder, ErrUnresolvable)
		}
		return PID{Local: target.Local}, nil
	case 2:
		if target.Net != holder.Net {
			return PID{}, fmt.Errorf("level 2 pid for %v from %v: %w", target, holder, ErrUnresolvable)
		}
		return PID{Mach: target.Mach, Local: target.Local}, nil
	case 3:
		return PID{Net: target.Net, Mach: target.Mach, Local: target.Local}, nil
	default:
		return PID{}, fmt.Errorf("level %d: %w", level, ErrBadLevel)
	}
}

// Map implements the R(sender) resolution rule for pids embedded in
// messages: the pid is interpreted in the sender's context and re-expressed
// minimally in the receiver's context, so that it denotes the same process
// for the receiver.
func Map(p PID, sender, receiver netsim.Addr) (PID, error) {
	abs, err := Absolute(p, sender)
	if err != nil {
		return PID{}, fmt.Errorf("map %v: %w", p, err)
	}
	return Relativize(abs, receiver), nil
}
