// Package suppressrecall reproduces the shape of the two stale exemptions
// the unused-suppression audit caught in the name server's server.go on
// its first run, beside the form they were fixed to. The audit
// runs with allocfree. The stale directives must keep firing and the fixed
// form must stay silent.
package suppressrecall

import "errors"

type result struct {
	ID  uint64
	Err string
}

var errBad = errors.New("non-canonical name")

// serveRequests is the server's steady path.
//
//namingvet:allocfree
func serveRequests(raw []string) result {
	if r := resolveOne(raw); r.Err != "" {
		return r
	}
	return resolveOneFixed(raw)
}

// Server.resolveOne, before the fix: both failure returns carried an exemption for
// an error render that is no allocation the analysis can see — a method
// call through an interface, into a value returned by copy.
func resolveOne(raw []string) result {
	if len(raw) == 0 {
		//namingvet:allocfree-exempt -- cold: failed resolution renders its error // want `unused suppression: no allocation evidence on the lines this allocfree-exempt directive covers`
		return result{Err: errBad.Error()}
	}
	if raw[0] == "" {
		//namingvet:allocfree-exempt -- cold: failed resolution renders its error // want `unused suppression: no allocation evidence on the lines this allocfree-exempt directive covers`
		return result{Err: errBad.Error()}
	}
	return result{ID: uint64(len(raw))}
}

// Fixed: the directives are gone, and allocfree stays silent.
func resolveOneFixed(raw []string) result {
	if len(raw) == 0 {
		return result{Err: errBad.Error()}
	}
	return result{ID: uint64(len(raw))}
}
