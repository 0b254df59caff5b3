package nameserver

import (
	"fmt"
	"reflect"
	"testing"

	"namecoherence/internal/core"
)

// populated returns a representative, fully-populated request, response
// and routing table: the fixed values the codec tests and the fuzz seeds
// are built from.
func populated() map[string]any {
	return map[string]any{
		"request": request{
			ID:         11,
			Path:       core.Path{"usr", "alice", "bin"},
			Paths:      []core.Path{{"a"}, {"b", "c"}},
			Routes:     true,
			Subscribe:  true,
			Op:         OpBind,
			Name:       "ls",
			Target:     88,
			TargetKind: 2,
			AtRev:      41,
			Twin:       17,
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

// filler builds a wire value by reflection: every field gets a value
// distinct from every other field's, and every collection n elements. It
// recurses through field types, so each type a message reaches — result
// and RouteInfo today — is filled without being listed anywhere. A kind
// it has no rule for, or a field it cannot set, fails the test: a wire
// type the codec tests cannot fill is one they cannot check.
type filler struct {
	t    *testing.T
	n    int
	next int
	// nilEmpty leaves an empty collection nil rather than empty, which is
	// what the codec decodes every empty collection to.
	nilEmpty bool
}

func (f *filler) fill(v reflect.Value, where string) {
	f.t.Helper()
	f.next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8:
		v.SetUint(uint64(1 + f.next%255))
	case reflect.Uint64:
		v.SetUint(uint64(f.next) << 20) // past one varint byte
	case reflect.Int:
		v.SetInt(int64(f.next))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), where)
	case reflect.Slice:
		if f.n == 0 && f.nilEmpty {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), f.n, f.n))
		for i := 0; i < f.n; i++ {
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", where, i))
		}
	case reflect.Map:
		if f.n == 0 && f.nilEmpty {
			return
		}
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < f.n; i++ {
			key := reflect.New(v.Type().Key()).Elem()
			f.fill(key, where+" key")
			val := reflect.New(v.Type().Elem()).Elem()
			f.fill(val, where+"["+fmt.Sprint(key)+"]")
			v.SetMapIndex(key, val)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			field := v.Type().Field(i)
			if !field.IsExported() {
				f.t.Errorf("%s.%s: unexported, so no test can fill it", where, field.Name)
				continue
			}
			f.fill(v.Field(i), where+"."+field.Name)
		}
	default:
		f.t.Errorf("%s: no fill rule for a %s; teach this test the codec's encoding of it", where, v.Type())
	}
}

// filled returns a T built by a filler (see filler).
func filled[T any](t *testing.T, n int, nilEmpty bool) T {
	t.Helper()
	var v T
	f := &filler{t: t, n: n, nilEmpty: nilEmpty}
	f.fill(reflect.ValueOf(&v).Elem(), reflect.TypeOf(v).Name())
	return v
}

// TestWireRegistryComplete walks the wire's type registry — every type
// reachable through the fields of request and response, listed nowhere by
// hand — and requires every struct among them to export each field: the
// round-trip test fills fields by reflection, and a field it cannot set
// is one the codec tests cannot check.
func TestWireRegistryComplete(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(rt reflect.Type, where string)
	walk = func(rt reflect.Type, where string) {
		if seen[rt] {
			return
		}
		seen[rt] = true
		switch rt.Kind() {
		case reflect.Pointer, reflect.Slice:
			walk(rt.Elem(), where)
		case reflect.Map:
			walk(rt.Key(), where+" key")
			walk(rt.Elem(), where)
		case reflect.Struct:
			for i := 0; i < rt.NumField(); i++ {
				f := rt.Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s: unexported, so no test can fill it", where, f.Name)
					continue
				}
				walk(f.Type, where+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(request{}), "request")
	walk(reflect.TypeOf(response{}), "response")
}

// TestWireRoundTrip fills every field of both messages, and of every
// type reached through their fields, with distinct non-zero values, and
// requires the codec to give back exactly what it was given:
// decode(encode(v)) == v. A field an encoder or decoder skips, or a type
// reached through a field that has no codec, comes back different. With
// empty collections the comparison follows the codec's nil-for-empty rule:
// an empty slice or map decodes as nil.
func TestWireRoundTrip(t *testing.T) {
	pairs := []struct{ in, want any }{
		{request{}, request{}},
		{response{}, response{}},
	}
	for _, n := range []int{0, 1, 3} {
		pairs = append(pairs,
			struct{ in, want any }{filled[request](t, n, false), filled[request](t, n, true)},
			struct{ in, want any }{filled[response](t, n, false), filled[response](t, n, true)})
	}
	for _, pair := range pairs {
		if got := binaryRoundTrip(t, pair.in); !reflect.DeepEqual(got, pair.want) {
			t.Errorf("%T did not round-trip:\n got  %#v\n want %#v", pair.in, got, pair.want)
		}
	}
}
