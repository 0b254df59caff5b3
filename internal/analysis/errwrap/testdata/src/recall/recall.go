// Package recall reproduces the shape of the cause-severing bug errwrap
// caught in persist.Load and replsvc.Pool (both since deleted), beside the
// form it was fixed to. The buggy lines must keep firing and the fixed
// forms must stay silent.
package recall

import (
	"errors"
	"fmt"
	"os"
)

// ErrCorrupt is the sentinel a snapshot load wraps, like persist's.
var ErrCorrupt = errors.New("corrupt snapshot")

// ErrUnavailable is the sentinel a replica pool wraps, like replsvc's.
var ErrUnavailable = errors.New("replica unavailable")

// persist.Load, before the fix: the sentinel was wrapped but the cause displayed, so
// errors.Is(err, fs.ErrNotExist) was false for a missing file.
func load(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err) // want `error formatted with %v; use %w`
	}
	return data, nil
}

// replsvc.Pool, before the fix: the same shape on the dial path.
func clientFor(dial func() error) error {
	if err := dial(); err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err) // want `error formatted with %v; use %w`
	}
	return nil
}

// Fixed, both: wrap sentinel and cause, so both stay in the chain.
func loadFixed(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return data, nil
}

func clientForFixed(dial func() error) error {
	if err := dial(); err != nil {
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	return nil
}
