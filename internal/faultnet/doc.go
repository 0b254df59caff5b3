// Package faultnet wraps a net.Listener so that tests and experiments can
// inject network faults deterministically: dropped connections, hung reads,
// and resets. The wrapped listener sits between a real client and a real
// server; flipping its mode changes how every current and future connection
// behaves, without touching either endpoint.
//
// The package exists to exercise the failure model of the fault-tolerant
// cluster client (deadlines, retry, replica failover, circuit breaking):
// a replica behind a faultnet.Listener in Reset or Hang mode looks exactly
// like a crashed or wedged name server.
//
// CountConn and CountListener are the observing counterpart: they inject
// nothing and count the reads and writes that reach the connection, for
// tests and benchmarks that hold a path to a syscalls-per-operation floor.
package faultnet
