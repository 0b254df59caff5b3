package nameserver

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// populated returns a representative, fully-populated value of each wire
// type. Every field is non-zero so a field silently dropped by gob (for
// example by becoming unexported) fails the round-trip comparison.
func populated() map[string]any {
	return map[string]any{
		"request": request{
			ID:         11,
			Path:       []string{"usr", "alice", "bin"},
			Paths:      [][]string{{"a"}, {"b", "c"}},
			Routes:     true,
			Subscribe:  true,
			Op:         OpBind,
			Name:       "ls",
			Target:     88,
			TargetKind: 2,
			AtRev:      41,
			Twin:       17,
		},
		"result": result{
			ID:   42,
			Kind: 3,
			Err:  "no such name",
			Dir:  40,
		},
		"response": response{
			ID:   7,
			Ent:  12,
			Kind: 1,
			Rev:  99,
			Err:  "boom",
			Results: []result{
				{ID: 1, Kind: 2, Err: "", Dir: 6},
				{ID: 0, Kind: 0, Err: "missing"},
			},
			Routes: &RouteInfo{
				Prefixes: map[string]int{"usr": 1, "srv": 2},
				Default:  0,
				Addrs:    []string{"a:1", "b:2", "c:3"},
				Replicas: [][]string{{"a:1", "a:9"}, {"b:2"}, {"c:3"}},
			},
			Invalidation: true,
			Dir:          6,
			Name:         "ls",
		},
		"RouteInfo": RouteInfo{
			Prefixes: map[string]int{"x": 4},
			Default:  4,
			Addrs:    []string{"x:1"},
			Replicas: [][]string{{"x:1", "x:2"}},
		},
	}
}

// TestWireRoundTrip gob-encodes and decodes a populated value of every
// registered wire type and requires the result to be identical.
func TestWireRoundTrip(t *testing.T) {
	values := populated()
	for name := range wireTypes {
		if _, ok := values[name]; !ok {
			t.Fatalf("wire type %q has no populated test value; add one to populated()", name)
		}
	}
	for name, v := range values {
		if _, ok := wireTypes[name]; !ok {
			t.Fatalf("test value %q is not in the wireTypes registry", name)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		out := reflect.New(reflect.TypeOf(v))
		if err := gob.NewDecoder(&buf).Decode(out.Interface()); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		got := out.Elem().Interface()
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%s: round trip mismatch:\n got %#v\nwant %#v", name, got, v)
		}
	}
}

// TestWireRegistryComplete requires every wire struct in wireTypes to
// have all fields exported: an unexported field would be silently dropped
// by gob, corrupting the protocol without an error.
func TestWireRegistryComplete(t *testing.T) {
	for name, v := range wireTypes {
		rt := reflect.TypeOf(v)
		if rt.Kind() != reflect.Struct {
			t.Errorf("%s: wire type is %s, want struct", name, rt.Kind())
			continue
		}
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Field(i); !f.IsExported() {
				t.Errorf("%s: field %s is unexported and would be dropped by gob", name, f.Name)
			}
		}
	}
}
