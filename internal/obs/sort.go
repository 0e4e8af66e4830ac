package obs

import "sort"

// Canonical event order. Within one cycle the compute phase of a
// parallel network step (see internal/noc) emits router events from
// worker goroutines in scheduler-dependent interleavings; the canonical
// order is a total order over every Event field, so two traces of the
// same simulation compare equal after CanonicalSort regardless of the
// worker count that produced them. Fully identical events tie, which is
// harmless: equal elements are interchangeable.

// CanonicalLess reports whether a orders before b canonically:
// by cycle, then router, kind, port, VC, args and detail.
func CanonicalLess(a, b Event) bool {
	switch {
	case a.Cycle != b.Cycle:
		return a.Cycle < b.Cycle
	case a.Router != b.Router:
		return a.Router < b.Router
	case a.Kind != b.Kind:
		return a.Kind < b.Kind
	case a.Port != b.Port:
		return a.Port < b.Port
	case a.VC != b.VC:
		return a.VC < b.VC
	case a.Arg != b.Arg:
		return a.Arg < b.Arg
	case a.Arg2 != b.Arg2:
		return a.Arg2 < b.Arg2
	default:
		return a.Detail < b.Detail
	}
}

// SortEvents sorts evs in place into the canonical order.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return CanonicalLess(evs[i], evs[j]) })
}

// CanonicalEvents returns the tracer's retained events in canonical
// order, for bit-exact comparison of traces across worker counts. On a
// bound tracer the comparison holds even after lanes wrap: which events
// a lane keeps depends only on its router's own event sequence, which
// is the same at any worker count.
func (t *Tracer) CanonicalEvents() []Event {
	evs := t.retained()
	SortEvents(evs)
	return evs
}
