// Package netsim provides the simulated network substrate: hierarchically
// addressed endpoints (network, machine, local), message delivery, and the
// machine/network renumbering events that §6 Example 1 of the paper studies
// ("when the address of a machine or a network is changed as part of
// relocation or reconfiguration").
//
// The simulation is deterministic: mailboxes are queues polled with
// TryRecv, not goroutines, so experiments control interleaving explicitly.
package netsim
