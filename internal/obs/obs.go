// Package obs is the simulator's observability layer: a metrics registry
// of monotonic counters and gauges keyed by (router, port, VC, kind), a
// cycle-accurate event tracer with JSON Lines and Chrome trace_event
// sinks, and a flight recorder dumped when an anomaly trips.
//
// # Why it exists
//
// The paper's evaluation reasons about where inside the router faults
// bite — per pipeline stage, per port, per VC — but endpoint packet
// statistics (internal/stats) cannot show pipeline occupancy, arbiter
// borrows, bypass activations or secondary-crossbar detours. This package
// makes that activity visible without perturbing the thing it measures.
//
// # Design
//
// Observability is opt-in per simulation via router.Config.Obs. When the
// field is nil — the default — every instrumentation site in the hot path
// reduces to one nil pointer test and no allocation, so the disabled
// simulator profile is indistinguishable from an uninstrumented build
// (bench_test.go keeps the comparison honest). When enabled, components
// resolve their counter handles once at attach time (RouterObs, NodeObs);
// per-event work is then a few predictable atomic adds plus, when tracing,
// one lane store per event sink.
//
// # Data flow
//
//	core.Router ──RouterObs──▶ Metrics (counters/gauges)
//	noc.Network/NI ──NodeObs──▶   │           │
//	fault.Injector ──Observer──▶  │      Observer.emit
//	watchdog.Monitor ─Observer─▶  │        │        │
//	                              │     Tracer   FlightRecorder
//	                              │    (per-node lanes, no lock)
//	                              ▼        ▼        ▼
//	        noctool metrics table   trace.json /   dumps on
//	                                JSONL / spans  trigger
//
// Events have one store, per-node lanes written without locks (see
// lanes); the Tracer and the FlightRecorder are both that store. Each
// lane keeps its router's most recent events, so long campaigns stay
// bounded in memory while the tail that explains how the simulation
// ended is always available — the same tail at any worker count.
package obs

import "gonoc/internal/sim"

// Observer bundles the collection surfaces. Any field may be nil to
// collect only the others.
type Observer struct {
	// Metrics is the counter/gauge registry, or nil.
	Metrics *Metrics
	// Tracer captures cycle-stamped events, or nil.
	Tracer *Tracer
	// Windows accumulates windowed per-link utilization and stall-mix
	// series (the /heatmap and noctool heatmap source), or nil.
	Windows *Windows
	// Flight is the always-on bounded flight recorder, dumped when a
	// watchdog or nocassert anomaly trips, or nil.
	Flight *FlightRecorder
}

// New returns an Observer with a fresh metrics registry and, when
// traceCapacity > 0, a tracer retaining that many events.
func New(traceCapacity int) *Observer {
	o := &Observer{Metrics: NewMetrics()}
	if traceCapacity > 0 {
		o.Tracer = NewTracer(traceCapacity)
	}
	return o
}

// counter returns a bound counter handle, or nil when metrics are off.
func (o *Observer) counter(k Key) *Counter {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Counter(k)
}

// gauge returns a bound gauge handle, or nil when metrics are off.
func (o *Observer) gauge(k Key) *Gauge {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Gauge(k)
}

// emit records an event in the tracer and flight recorder, if any. It
// takes no lock: both are lane stores (see lanes).
func (o *Observer) emit(e Event) {
	if o == nil {
		return
	}
	if o.Tracer != nil {
		o.Tracer.Emit(e)
	}
	if o.Flight != nil {
		o.Flight.Record(e)
	}
}

// RecordFault counts and traces one fault-layer occurrence (injection,
// transient strike, recovery, detection). kind selects the counter
// series; ev the event class. port/vcIdx locate the site (NoPort/NoVC
// when not applicable), arg carries the event's Kind-specific argument
// and detail an optional site name. Fault events are rare, so this
// resolves the counter per call instead of pre-binding.
func (o *Observer) RecordFault(kind Kind, ev EventKind, cy sim.Cycle, routerID, port, vcIdx int, arg int32, detail string) {
	if o == nil {
		return
	}
	if c := o.counter(Key{Kind: kind, Router: int32(routerID), Port: int8(port), VC: int8(vcIdx)}); c != nil {
		c.Inc()
	}
	o.emit(Event{
		Cycle: cy, Kind: ev, Router: int32(routerID),
		Port: int8(port), VC: int8(vcIdx), Arg: arg, Detail: detail,
	})
}

// inc is a nil-tolerant counter increment for pre-bound handles.
func inc(c *Counter) {
	if c != nil {
		c.Inc()
	}
}

// RouterObs is a router's pre-bound instrumentation handle: every
// counter the pipeline touches is resolved once here, so the per-event
// cost inside core.Router is an atomic add (and a ring store when
// tracing). A nil *RouterObs means observability is disabled; callers
// guard with a single nil check.
type RouterObs struct {
	o   *Observer
	id  int32
	vcs int
	win *Windows

	rcComputes, rcDup              []*Counter // per input port
	vaAllocs, vaBorrows, vaStalls  []*Counter // per input port
	saGrants, saBypass, saTransfer []*Counter // per input port
	reroutes                       []*Counter // per input port
	vaRetries                      []*Counter // per output port
	flitsRouted, xbSecondary       []*Counter // per output port

	// stalls holds the stall-attribution counters, one per class, each
	// indexed port*vcs+vc. Stall sites fire up to once per input VC per
	// cycle, so they are pre-bound like everything else here.
	stalls [NumStallKinds][]*Counter
}

// BindRouter resolves the per-port and per-VC counter handles for
// router id. It returns nil when o is nil, so core.New can bind
// unconditionally.
func BindRouter(o *Observer, id, ports, vcs int) *RouterObs {
	if o == nil {
		return nil
	}
	r := &RouterObs{o: o, id: int32(id), vcs: vcs, win: o.Windows}
	bind := func(k Kind) []*Counter {
		cs := make([]*Counter, ports)
		for p := range cs {
			cs[p] = o.counter(Key{Kind: k, Router: int32(id), Port: int8(p), VC: NoVC})
		}
		return cs
	}
	r.rcComputes = bind(KRCComputes)
	r.rcDup = bind(KRCDuplicateUses)
	r.vaAllocs = bind(KVAAllocs)
	r.vaBorrows = bind(KVA1Borrows)
	r.vaStalls = bind(KVA1BorrowStalls)
	r.vaRetries = bind(KVA2Retries)
	r.saGrants = bind(KSAGrants)
	r.saBypass = bind(KSABypassGrants)
	r.saTransfer = bind(KSATransfers)
	r.flitsRouted = bind(KFlitsRouted)
	r.xbSecondary = bind(KXBSecondary)
	r.reroutes = bind(KReroutes)
	for k := 0; k < NumStallKinds; k++ {
		cs := make([]*Counter, ports*vcs)
		for p := 0; p < ports; p++ {
			for v := 0; v < vcs; v++ {
				cs[p*vcs+v] = o.counter(Key{
					Kind: StallKind(k).Kind(), Router: int32(id),
					Port: int8(p), VC: int8(v),
				})
			}
		}
		r.stalls[k] = cs
	}
	return r
}

// Stall records one non-advancing flit-cycle of input VC (port, vcIdx)
// classified as k. The stall scan can fire for every VC every cycle at
// saturation, so no trace event is emitted — the series lives in the
// counters and the windowed stall mix, which is what a drowned tracer
// ring could not show anyway.
func (r *RouterObs) Stall(k StallKind, port, vcIdx int) {
	inc(r.stalls[k][port*r.vcs+vcIdx])
	if w := r.win; w != nil {
		w.AddStall(int(r.id), port, k)
	}
}

// RCCompute records a completed routing computation for input VC
// (port, vcIdx) toward out; dup marks service by the duplicate unit.
func (r *RouterObs) RCCompute(cy sim.Cycle, port, vcIdx, out int, dup bool) {
	inc(r.rcComputes[port])
	kind := EvRCCompute
	if dup {
		inc(r.rcDup[port])
		kind = EvRCDuplicate
	}
	r.o.emit(Event{Cycle: cy, Kind: kind, Router: r.id, Port: int8(port), VC: int8(vcIdx), Arg: int32(out)})
}

// Reroute records routing for (port, vcIdx) detouring off the XY path
// toward out to avoid a dead link or router.
func (r *RouterObs) Reroute(cy sim.Cycle, port, vcIdx, out int) {
	inc(r.reroutes[port])
	r.o.emit(Event{Cycle: cy, Kind: EvReroute, Router: r.id, Port: int8(port), VC: int8(vcIdx), Arg: int32(out)})
}

// VAAlloc records input VC (port, vcIdx) winning downstream VC dvc at
// output port out.
func (r *RouterObs) VAAlloc(cy sim.Cycle, port, vcIdx, out, dvc int) {
	inc(r.vaAllocs[port])
	r.o.emit(Event{Cycle: cy, Kind: EvVAAlloc, Router: r.id, Port: int8(port), VC: int8(vcIdx), Arg: int32(out), Arg2: int32(dvc)})
}

// VABorrow records (port, vcIdx) borrowing the stage-1 arbiters of
// sibling VC lender.
func (r *RouterObs) VABorrow(cy sim.Cycle, port, vcIdx, lender int) {
	inc(r.vaBorrows[port])
	r.o.emit(Event{Cycle: cy, Kind: EvVABorrow, Router: r.id, Port: int8(port), VC: int8(vcIdx), Arg: int32(lender)})
}

// VABorrowStall records (port, vcIdx) waiting a cycle for a lender.
func (r *RouterObs) VABorrowStall(cy sim.Cycle, port, vcIdx int) {
	inc(r.vaStalls[port])
	r.o.emit(Event{Cycle: cy, Kind: EvVABorrowStall, Router: r.id, Port: int8(port), VC: int8(vcIdx)})
}

// VARetry records losers requesters of downstream VC (out, dvc) losing
// their attempt to a faulty stage-2 arbiter.
func (r *RouterObs) VARetry(cy sim.Cycle, out, dvc, losers int) {
	if c := r.vaRetries[out]; c != nil {
		c.Add(uint64(losers))
	}
	r.o.emit(Event{Cycle: cy, Kind: EvVARetry, Router: r.id, Port: int8(out), VC: int8(dvc), Arg: int32(losers)})
}

// SAGrant records input VC (port, vcIdx) winning switch allocation
// toward out; bypass marks a stage-1 grant issued by the bypass path.
func (r *RouterObs) SAGrant(cy sim.Cycle, port, vcIdx, out int, bypass bool) {
	inc(r.saGrants[port])
	kind := EvSAGrant
	if bypass {
		kind = EvSABypass
	}
	r.o.emit(Event{Cycle: cy, Kind: kind, Router: r.id, Port: int8(port), VC: int8(vcIdx), Arg: int32(out)})
}

// SABypassGrant records a stage-1 grant issued by the bypass default
// winner at port (counted even when stage 2 later denies the port).
func (r *RouterObs) SABypassGrant(port int) { inc(r.saBypass[port]) }

// SATransfer records input port adopting sibling VC adopted as the
// bypass default winner dst.
func (r *RouterObs) SATransfer(cy sim.Cycle, port, dst, adopted int) {
	inc(r.saTransfer[port])
	r.o.emit(Event{Cycle: cy, Kind: EvSATransfer, Router: r.id, Port: int8(port), VC: NoVC, Arg: int32(dst), Arg2: int32(adopted)})
}

// XBTraverse records a flit from (port, vcIdx) crossing to output out;
// secondary marks the protected crossbar's detour path.
func (r *RouterObs) XBTraverse(cy sim.Cycle, port, vcIdx, out int, secondary bool) {
	inc(r.flitsRouted[out])
	kind := EvXBTraverse
	if secondary {
		inc(r.xbSecondary[out])
		kind = EvXBSecondary
	}
	r.o.emit(Event{Cycle: cy, Kind: kind, Router: r.id, Port: int8(port), VC: int8(vcIdx), Arg: int32(out)})
}

// NodeObs is the pre-bound handle for a node's network-side activity:
// link utilization per output port and NI injection/ejection. Held by
// noc.Network and noc.NI; nil when observability is disabled.
type NodeObs struct {
	o   *Observer
	id  int32
	win *Windows

	linkFlits []*Counter // per output port
	linkDrops []*Counter // per output port
	niSent    *Counter
	niOffered *Counter
	niEjected *Counter
	niQueue   *Gauge

	niUnreach      *Counter
	niRetx         *Counter
	niRetxTimeouts *Counter
	niDups         *Counter
}

// BindNode resolves node id's link and NI handles. It returns nil when
// o is nil.
func BindNode(o *Observer, id, ports int) *NodeObs {
	if o == nil {
		return nil
	}
	n := &NodeObs{o: o, id: int32(id), win: o.Windows}
	n.linkFlits = make([]*Counter, ports)
	n.linkDrops = make([]*Counter, ports)
	for p := range n.linkFlits {
		n.linkFlits[p] = o.counter(Key{Kind: KLinkFlits, Router: int32(id), Port: int8(p), VC: NoVC})
		n.linkDrops[p] = o.counter(Key{Kind: KLinkDrops, Router: int32(id), Port: int8(p), VC: NoVC})
	}
	n.niSent = o.counter(Key{Kind: KNIFlitsSent, Router: int32(id), Port: NoPort, VC: NoVC})
	n.niOffered = o.counter(Key{Kind: KNIPacketsOffered, Router: int32(id), Port: NoPort, VC: NoVC})
	n.niEjected = o.counter(Key{Kind: KNIPacketsEjected, Router: int32(id), Port: NoPort, VC: NoVC})
	n.niQueue = o.gauge(Key{Kind: KNIQueueDepth, Router: int32(id), Port: NoPort, VC: NoVC})
	n.niUnreach = o.counter(Key{Kind: KDropsUnreachable, Router: int32(id), Port: NoPort, VC: NoVC})
	n.niRetx = o.counter(Key{Kind: KNIRetransmits, Router: int32(id), Port: NoPort, VC: NoVC})
	n.niRetxTimeouts = o.counter(Key{Kind: KNIRetxTimeouts, Router: int32(id), Port: NoPort, VC: NoVC})
	n.niDups = o.counter(Key{Kind: KNIDupsSuppressed, Router: int32(id), Port: NoPort, VC: NoVC})
	return n
}

// LinkFlit records one flit carried by the node's output link out on
// downstream VC vcIdx (the VC dimension feeds the utilization windows;
// the counter stays per-port).
func (n *NodeObs) LinkFlit(out, vcIdx int) {
	inc(n.linkFlits[out])
	if w := n.win; w != nil {
		w.AddUtil(int(n.id), out, vcIdx)
	}
}

// NIFlitSent records the NI streaming one flit into the router.
func (n *NodeObs) NIFlitSent() { inc(n.niSent) }

// NIOffer records a packet for node dst entering the injection queue.
func (n *NodeObs) NIOffer(cy sim.Cycle, dst int) {
	inc(n.niOffered)
	n.o.emit(Event{Cycle: cy, Kind: EvNIOffer, Router: n.id, Port: NoPort, VC: NoVC, Arg: int32(dst)})
}

// NIEject records a packet delivered at this node with the given
// creation-to-ejection latency.
func (n *NodeObs) NIEject(cy sim.Cycle, latency sim.Cycle) {
	inc(n.niEjected)
	n.o.emit(Event{Cycle: cy, Kind: EvNIEject, Router: n.id, Port: NoPort, VC: NoVC, Arg: int32(latency)})
}

// NIQueueDepth updates the NI's waiting-packet gauge.
func (n *NodeObs) NIQueueDepth(depth int) {
	if n.niQueue != nil {
		n.niQueue.Set(int64(depth))
	}
}

// LinkDrop records a packet for dst discarded at the node's dead
// outgoing link out. The drop feeds the windowed stall mix as
// fault-drain work on that link.
func (n *NodeObs) LinkDrop(cy sim.Cycle, out, dst int) {
	inc(n.linkDrops[out])
	if w := n.win; w != nil {
		w.AddStall(int(n.id), out, StallFaultDrain)
	}
	n.o.emit(Event{Cycle: cy, Kind: EvLinkDrop, Router: n.id, Port: int8(out), VC: NoVC, Arg: int32(dst)})
}

// DropUnreachable records a packet for dst dropped because no surviving
// path reaches it.
func (n *NodeObs) DropUnreachable(cy sim.Cycle, dst int) {
	inc(n.niUnreach)
	n.o.emit(Event{Cycle: cy, Kind: EvDropUnreachable, Router: n.id, Port: NoPort, VC: NoVC, Arg: int32(dst)})
}

// NIRetransmit records the NI re-injecting an unacknowledged packet for
// dst after a retransmission-timer expiry; retry is the retransmission
// attempt number (1-based). Every retransmission today is timer-driven,
// so the timeout counter moves in lockstep.
func (n *NodeObs) NIRetransmit(cy sim.Cycle, dst, retry int) {
	inc(n.niRetx)
	inc(n.niRetxTimeouts)
	n.o.emit(Event{Cycle: cy, Kind: EvNIRetransmit, Router: n.id, Port: NoPort, VC: NoVC, Arg: int32(dst), Arg2: int32(retry)})
}

// NIDupSuppressed records the sink NI discarding a duplicate delivery of
// a packet from src.
func (n *NodeObs) NIDupSuppressed(cy sim.Cycle, src int) {
	inc(n.niDups)
	n.o.emit(Event{Cycle: cy, Kind: EvNIDupSuppressed, Router: n.id, Port: NoPort, VC: NoVC, Arg: int32(src)})
}
