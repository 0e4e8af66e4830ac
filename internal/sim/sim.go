// Package sim holds the simulator's time base: the Cycle type every
// package stamps its state and events with.
//
// gonoc models hardware the way a synchronous RTL simulator does: the
// whole system advances in lock-step cycles. The stepping itself lives
// in internal/noc, whose Network.Step runs each cycle as a serial
// pre-phase, a compute phase sharded over worker goroutines and a
// commit phase, bit-exact at any worker count.
package sim

// Cycle is a simulation timestamp in clock cycles.
type Cycle uint64
