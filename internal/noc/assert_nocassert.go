//go:build nocassert

// Runtime counterpart of the nocvet analyzers (internal/analysis): where
// the analyzers prove structural rules about the source, this layer
// checks the dynamic invariants those rules protect, once per tick.
// Build with
//
//	go test -tags nocassert ./...
//
// to enable it; the default build compiles it out entirely (see
// assert_off.go).
package noc

import (
	"bytes"
	"fmt"

	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// assertEnabled gates the per-tick runtime assertion layer: this build
// has the nocassert tag, so Step verifies the network after every commit
// phase.
const assertEnabled = true

// assertPostStep validates the network at the cycle boundary, after the
// commit phase has drained all staged outputs:
//
//   - the global credit-conservation equation (CheckInvariants): for every
//     inter-router link and VC, credits + occupancy + wire flits + wire
//     credits + pending grants = Depth;
//   - every virtual channel's state-machine consistency (checkVCState);
//   - every input port's buffered-flit count (which Router.Idle reads)
//     against the sum of its VCs' buffer lengths.
//
// A violation panics with the cycle and location: these are simulator
// bugs, never workload conditions, so failing loudly at the first bad
// cycle beats diagnosing the downstream wreckage.
func (n *Network) assertPostStep() {
	if err := n.CheckInvariants(); err != nil {
		n.assertFail(fmt.Sprintf("nocassert: cycle %d: %v", n.cycle, err))
	}
	for id, r := range n.routers {
		cfg := r.Config()
		for p := 0; p < cfg.Ports; p++ {
			occ := 0
			for v := 0; v < cfg.VCs; v++ {
				q := r.InputVC(topology.Port(p), v)
				if err := checkVCState(q); err != nil {
					n.assertFail(fmt.Sprintf("nocassert: cycle %d: router %d port %v vc%d: %v",
						n.cycle, id, topology.Port(p), v, err))
				}
				occ += q.Len()
			}
			if got := r.BufferedFlits(topology.Port(p)); got != occ {
				n.assertFail(fmt.Sprintf("nocassert: cycle %d: router %d port %v: buffered-flit count %d, VCs hold %d",
					n.cycle, id, topology.Port(p), got, occ))
			}
		}
	}
}

// assertIdleTick backs the compute phase's idle fast path: for node id,
// which computeNode is about to skip at cycle c, it runs the full NI and
// router tick the skip stands in for and panics unless the tick was an
// identity — same canonical router and NI state, same router counters,
// nothing emitted. It runs inside the compute phase, possibly on a
// worker goroutine, so it panics directly instead of going through
// assertFail's serial-phase flight dump.
func (n *Network) assertIdleTick(id int, c sim.Cycle) {
	r := n.routers[id]
	rBefore := r.AppendCanonical(nil)
	niBefore := n.appendCanonicalNI(nil, id)
	ctr := r.Counters
	n.nis[id].tick(c)
	r.Tick(c)
	emitted := len(r.TakeOutFlits()) + len(r.TakeOutCredits()) + len(r.TakeDropped())
	if emitted != 0 || r.Counters != ctr ||
		!bytes.Equal(rBefore, r.AppendCanonical(nil)) || !bytes.Equal(niBefore, n.appendCanonicalNI(nil, id)) {
		panic(fmt.Sprintf("nocassert: cycle %d: node %d was skipped as idle, but a full tick changed it (%d outputs emitted)",
			c, id, emitted))
	}
}

// assertFail records a flight-recorder dump (when one is attached) so the
// cycles leading up to the violation survive the crash, then panics with
// the violation message. The dump is retrievable from the recorder by a
// recovering caller, and the panic message points at it.
func (n *Network) assertFail(msg string) {
	if _, ok := n.TriggerFlightDump(msg); ok {
		panic(msg + " (flight-recorder dump captured)")
	}
	panic(msg)
}

// checkVCState validates one VC against the G state machine of Figure 3d
// as it must look at a cycle boundary:
//
//	Idle     — no packet: buffer empty, no downstream VC held
//	Routing  — head flit buffered, awaiting RC: no downstream VC yet
//	VCAlloc  — head flit buffered, competing in VA: no downstream VC yet
//	Active   — downstream VC allocated (buffer may be empty mid-packet)
//	Dropping — discarding a doomed packet: no downstream VC held (the
//	           buffer may be empty while body flits are still arriving)
func checkVCState(q *vc.VC) error {
	switch q.G {
	case vc.Idle:
		if !q.Empty() {
			return fmt.Errorf("Idle VC holds %d flits", q.Len())
		}
		if q.OutVC != vc.None {
			return fmt.Errorf("Idle VC holds downstream VC %d", q.OutVC)
		}
	case vc.Routing, vc.VCAlloc:
		if q.OutVC != vc.None {
			return fmt.Errorf("%v VC already holds downstream VC %d", q.G, q.OutVC)
		}
		if q.Empty() {
			return fmt.Errorf("%v VC has no buffered flit", q.G)
		}
		if f := q.Front(); !f.Kind.IsHead() {
			return fmt.Errorf("%v VC fronts a %v flit, want a head", q.G, f.Kind)
		}
	case vc.Active:
		if q.OutVC == vc.None {
			return fmt.Errorf("Active VC holds no downstream VC")
		}
	case vc.Dropping:
		if q.OutVC != vc.None {
			return fmt.Errorf("Dropping VC holds downstream VC %d", q.OutVC)
		}
	default:
		return fmt.Errorf("unknown G state %d", uint8(q.G))
	}
	return nil
}
