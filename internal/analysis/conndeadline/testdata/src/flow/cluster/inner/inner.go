// Package inner is the cross-package half of the clusterflow fixture: it
// exports a wire helper with no deadline of its own, whose UnguardedIO
// fact must reach the importing package.
package inner

import "net"

// RoundTrip performs wire I/O without setting a deadline. Being exported,
// it is never exonerated — it is reported here, and every unguarded call
// to it is reported at the call site via the exported fact.
func RoundTrip(conn net.Conn, req, resp []byte) error {
	if _, err := conn.Write(req); err != nil { // want `conn write without a preceding SetDeadline in RoundTrip`
		return err
	}
	_, err := conn.Read(resp) // want `conn read without a preceding SetDeadline in RoundTrip`
	return err
}
