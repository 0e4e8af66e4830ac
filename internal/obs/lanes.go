package obs

// lanes is the package's one event store, shared by the Tracer and the
// FlightRecorder: a fixed-size ring per router of a nodes-router network
// plus a lane for network-global events (Router outside [0, nodes)).
//
// Recording takes no lock and never allocates. It leans on the network's
// phase discipline: in the parallel compute phase only the worker owning
// a node emits events carrying its id, and every other emitter (NIs,
// links, the fault layer, the watchdog) runs in a serial phase. No lane
// ever has two concurrent writers, and each lane holds only its router's
// own event sequence — the same at any worker count. So a store must not
// be shared by concurrently stepping networks, and every read must run
// from a serial phase (a cycle hook, between steps, the nocassert path).
type lanes struct {
	nodes   int
	perLane int

	ring  []Event  // nodes+1 lanes of perLane slots
	next  []int32  // per-lane write cursor
	count []int32  // per-lane filled slots (≤ perLane)
	total []uint64 // per-lane lifetime record count
}

// newLanes lays out nodes+1 lanes of perLane slots over ring, which
// must hold (nodes+1)*perLane events.
func newLanes(ring []Event, nodes, perLane int) lanes {
	n := nodes + 1
	return lanes{
		nodes: nodes, perLane: perLane, ring: ring,
		next:  make([]int32, n),
		count: make([]int32, n),
		total: make([]uint64, n),
	}
}

// record stores e in its router's lane, overwriting the lane's oldest
// event when full.
func (l *lanes) record(e Event) {
	lane := int(e.Router)
	if lane < 0 || lane >= l.nodes {
		lane = l.nodes // network-global lane
	}
	i := l.next[lane]
	l.ring[lane*l.perLane+int(i)] = e
	l.next[lane] = (i + 1) % int32(l.perLane)
	if l.count[lane] < int32(l.perLane) {
		l.count[lane]++
	}
	l.total[lane]++
}

// Total returns how many events were recorded over the lifetime,
// including overwritten ones.
func (l *lanes) Total() uint64 {
	var n uint64
	for _, t := range l.total {
		n += t
	}
	return n
}

// Dropped returns how many events were overwritten by lane wrap-around.
func (l *lanes) Dropped() uint64 {
	n := l.Total()
	for _, c := range l.count {
		n -= uint64(c)
	}
	return n
}

// retained returns a fresh copy of every retained event, lane by lane,
// each lane oldest first (its emission order).
func (l *lanes) retained() []Event {
	var size int
	for _, c := range l.count {
		size += int(c)
	}
	out := make([]Event, 0, size)
	for lane, c := range l.count {
		base, n := lane*l.perLane, int(c)
		start := 0
		if n == l.perLane {
			start = int(l.next[lane])
		}
		out = append(out, l.ring[base+start:base+n]...)
		out = append(out, l.ring[base:base+start]...)
	}
	return out
}
