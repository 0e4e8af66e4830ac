package noc

import (
	"gonoc/internal/obs"
	"gonoc/internal/topology"
)

// NextHop reports the downstream router and the input port its link feeds
// when leaving router id through output port out. ok is false for the
// local (ejection) port and for mesh edges. It is the topology adapter
// obs.BuildSpans needs to chain hops across routers.
func (n *Network) NextHop(id, out int) (nextRouter, inPort int, ok bool) {
	p := topology.Port(out)
	if p == localPort {
		return 0, 0, false
	}
	nb := n.neighbor(id, p)
	if nb < 0 {
		return 0, 0, false
	}
	return nb, int(p.Opposite()), true
}

// Spans reconstructs per-packet hop spans from the network's retained
// trace window. It returns an empty set when the network runs without a
// tracer. Like every tracer read it is serial-phase only: call it after
// the simulation, between steps or from a cycle hook, never while a
// step is running on another goroutine.
func (n *Network) Spans() obs.SpanSet {
	o := n.Obs()
	if o == nil || o.Tracer == nil {
		return obs.SpanSet{}
	}
	return obs.BuildSpans(o.Tracer.Events(), obs.SpanConfig{
		NextHop:   n.NextHop,
		LocalPort: int(localPort),
	})
}
